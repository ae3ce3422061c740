// Package runner holds the two small concurrency helpers shared
// outside the sweep executor (internal/sweep): DeriveSeed, the
// stable-key seed derivation every simulation point uses, and Do, the
// fan-out primitive for heterogeneous tasks. It imports only the
// standard library, so any package — traffic's tenant placement, the
// benchmark harness — can derive seeds exactly as the sweeps do.
package runner

import (
	"hash/fnv"
	"runtime"
	"sync"
)

// DeriveSeed maps a base seed and a stable job key to a per-job seed
// (FNV-1a over the key, folded into the base). Deriving seeds from job
// identity rather than execution order is what keeps parallel and
// serial sweeps bit-identical.
func DeriveSeed(base int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	s := int64(h.Sum64()&0x7fffffffffffffff) ^ base
	if s == 0 {
		s = base + 1
	}
	return s
}

// Do runs independent tasks concurrently over min(workers, len(tasks))
// goroutines (workers <= 0 means GOMAXPROCS) and returns the first
// non-nil error by task order. It is the fan-out primitive for
// heterogeneous work such as the ablation studies.
func Do(workers int, tasks ...func() error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(tasks))
	errs := make([]error, len(tasks))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = tasks[i]()
			}
		}()
	}
	for i := range tasks {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
