package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/traffic"
)

// Memo holds the expensive artifacts cells share: routing tables,
// built once per topology graph and shared read-only across cells
// (routing.Table documents this contract); simulator prototypes (the
// port maps of simnet.New), cloned cheaply per cell via simnet.Clone;
// and rank→endpoint mappings, keyed by (endpoints, ranks, seed).
// Passing one Memo to consecutive runs (Options.Memo) lets them reuse
// each other's tables. The zero value is ready to use, and a Memo is
// safe for concurrent use.
type Memo struct {
	mu     sync.Mutex
	tables map[*graph.Graph]*tableEntry
	protos map[protoKey]*protoEntry
	maps   map[mapKey]*mapEntry
}

// tableEntry memoizes one graph's routing table. The table pointer is
// atomic so tableBytes can observe entries without racing a build in
// progress.
type tableEntry struct {
	once  sync.Once
	table atomic.Pointer[routing.Table]
}

type protoKey struct {
	g    *graph.Graph
	conc int
}

type protoEntry struct {
	once  sync.Once
	proto *simnet.Network
	err   error
}

type mapKey struct {
	totalEP, ranks int
	seed           int64
}

type mapEntry struct {
	once sync.Once
	mp   traffic.Mapping
	err  error
}

// entry returns the memo entry for k, creating the map and the entry
// on first use. The entry's once then builds its value outside mu.
func entry[K comparable, V any](mu *sync.Mutex, m *map[K]*V, k K) *V {
	mu.Lock()
	defer mu.Unlock()
	if *m == nil {
		*m = make(map[K]*V)
	}
	e := (*m)[k]
	if e == nil {
		e = new(V)
		(*m)[k] = e
	}
	return e
}

// table returns the memoized routing table for g, building it with
// opts on first use.
func (m *Memo) table(g *graph.Graph, opts routing.TableOptions) *routing.Table {
	e := entry(&m.mu, &m.tables, g)
	e.once.Do(func() { e.table.Store(routing.NewTableOpts(g, opts)) })
	return e.table.Load()
}

// register seeds the table memo for g with a table built elsewhere —
// fault groups install one incrementally repaired table per plan
// here, so no cell ever pays for a full rebuild of a damaged instance.
// Registering after a table for g is already memoized is a no-op; t.G
// must be g.
func (m *Memo) register(g *graph.Graph, t *routing.Table) {
	if t == nil || t.G != g {
		panic("sweep: register requires a table built for g")
	}
	e := entry(&m.mu, &m.tables, g)
	e.once.Do(func() { e.table.Store(t) })
}

// tableBytes returns the current distance-store footprint of every
// memoized routing table. Lazy tables report only their resident
// working set, so the value tracks real memory as runs build, touch
// and release instances.
func (m *Memo) tableBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b int64
	for _, e := range m.tables {
		if t := e.table.Load(); t != nil {
			b += t.MemoryBytes()
		}
	}
	return b
}

// mapping returns the memoized rank→endpoint mapping for
// (totalEP, ranks, seed), building it on first use.
func (m *Memo) mapping(ranks, totalEP int, seed int64) (traffic.Mapping, error) {
	e := entry(&m.mu, &m.maps, mapKey{totalEP: totalEP, ranks: ranks, seed: seed})
	e.once.Do(func() { e.mp, e.err = traffic.NewMapping(ranks, totalEP, seed) })
	return e.mp, e.err
}

// prototype returns the memoized simulator for (g, conc), built over
// g's memoized table.
func (m *Memo) prototype(g *graph.Graph, conc int, opts routing.TableOptions) (*simnet.Network, error) {
	e := entry(&m.mu, &m.protos, protoKey{g: g, conc: conc})
	e.once.Do(func() {
		e.proto, e.err = simnet.New(simnet.Config{Topo: g, Concentration: conc}, m.table(g, opts))
	})
	return e.proto, e.err
}

// release drops the memoized routing table and simulator prototypes
// for g once its cells have all completed, so peak memory tracks one
// group of damaged instances rather than the whole sweep. Releasing an
// unknown graph is a no-op.
func (m *Memo) release(g *graph.Graph) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.tables, g)
	for k := range m.protos {
		if k.g == g {
			delete(m.protos, k)
		}
	}
}

// poolSize resolves the number of cells in flight: Parallel when set,
// otherwise GOMAXPROCS split between cell-level and intra-run
// parallelism when the sharded engine runs (Workers >= 2), so cells ×
// shards never oversubscribe the machine.
func poolSize(opts Options) int {
	if opts.Parallel > 0 {
		return opts.Parallel
	}
	pool := runtime.GOMAXPROCS(0)
	if opts.Workers > 1 {
		pool = max(1, pool/opts.Workers)
	}
	return pool
}

// task is one cell bound to its group context: the concrete (possibly
// damaged) topology and everything derived from it.
type task struct {
	cell  *Cell
	key   string // cellKey, for error messages
	seed  int64
	g     *graph.Graph
	dead  []bool
	sched fault.Schedule
	lats  *simnet.LinkLatencies
	ten   *traffic.Assignment // load grids only
}

// executor runs the tasks of one grid execution.
type executor struct {
	grid    *Grid
	memo    *Memo
	tables  routing.TableOptions
	workers int
}

// exec runs one task. Failures land in Result.Err with the cell key
// attached; they never abort the stream.
func (x *executor) exec(t *task) Result {
	res := Result{Cell: *t.cell}
	var err error
	res.Stats, res.Saturation, err = x.measure(t)
	if err != nil {
		res.Err = fmt.Errorf("sweep: cell %q: %w", t.key, err)
	}
	return res
}

// measure runs the grid's measurement on a private clone of the
// task's memoized simulator. Grid.validate has already rejected every
// grid-level inconsistency; only values known per cell are checked.
func (x *executor) measure(t *task) (simnet.Stats, float64, error) {
	g, c := x.grid, t.cell
	if len(t.sched) > 0 {
		if err := t.sched.Validate(t.g); err != nil {
			return simnet.Stats{}, 0, err
		}
	}
	proto, err := x.memo.prototype(t.g, g.Instances[c.Instance].Concentration, x.tables)
	if err != nil {
		return simnet.Stats{}, 0, err
	}
	nw := proto.Clone()
	nw.SetPolicy(c.Policy)
	nw.SetSeed(t.seed)
	nw.SetWorkers(x.workers)
	if t.dead != nil {
		nw.SetDeadRouters(t.dead)
	}
	if len(t.sched) > 0 {
		if err := nw.SetSchedule(t.sched); err != nil {
			return simnet.Stats{}, 0, err
		}
	}
	if t.lats != nil {
		if err := nw.SetLinkLatencies(t.lats); err != nil {
			return simnet.Stats{}, 0, err
		}
	}
	switch g.Measure {
	case MeasureSaturation:
		nep := nw.Endpoints()
		pattern := func(srcEP int, rng *rand.Rand) int { return rng.Intn(nep) }
		return simnet.Stats{}, nw.SaturationLoad(pattern, g.MsgsPerRank, g.LatencyFactor, g.Tol), nil
	case MeasureMotif:
		if err := traffic.Validate(c.Motif, g.Ranks); err != nil {
			return simnet.Stats{}, 0, err
		}
		mp, err := x.memo.mapping(g.Ranks, nw.Endpoints(), g.Seed)
		if err != nil {
			return simnet.Stats{}, 0, err
		}
		st, err := nw.RunBatches(traffic.MapRounds(c.Motif, mp))
		return st, 0, err
	}
	if t.ten != nil {
		// Zero-load tenant specs draw their load from the cell's.
		tc, err := t.ten.Config(c.Load)
		if err != nil {
			return simnet.Stats{}, 0, err
		}
		if err := nw.SetTenants(tc); err != nil {
			return simnet.Stats{}, 0, err
		}
		return nw.RunLoad(t.ten.Pattern(), c.Load, g.MsgsPerRank), 0, nil
	}
	mp, err := x.memo.mapping(g.Ranks, nw.Endpoints(), g.Seed)
	if err != nil {
		return simnet.Stats{}, 0, err
	}
	if g.ShiftPeriod > 0 {
		funcs := make([]simnet.PatternFunc, len(g.ShiftPatterns))
		for i, p := range g.ShiftPatterns {
			funcs[i] = mp.PatternEndpoints(p, g.Ranks)
		}
		period := g.ShiftPeriod
		return nw.RunLoadTimed(func(srcEP int, now int64, rng *rand.Rand) int {
			return funcs[int(now/period)%len(funcs)](srcEP, rng)
		}, c.Load, g.MsgsPerRank), 0, nil
	}
	return nw.RunLoad(mp.PatternEndpoints(c.Pattern, g.Ranks), c.Load, g.MsgsPerRank), 0, nil
}

// stream is the ordered-delivery loop of one batch. Slot i is complete
// up front when hit[i] (a cache hit) and otherwise once exec(i)
// returns; exec runs over min(pool, misses) goroutines. emit(i) is
// called for every slot in index order as soon as the slot and all its
// predecessors are complete, never concurrently with itself, so the
// delivered sequence is a prefix of slot order for any pool size.
//
// Cancelling ctx, or an error from emit, stops the stream: nothing is
// scheduled or emitted afterwards, execs already in flight finish with
// their results discarded, and stream returns the error.
func stream(ctx context.Context, pool int, hit []bool, exec func(int), emit func(int) error) error {
	n, misses := len(hit), 0
	for _, h := range hit {
		if !h {
			misses++
		}
	}
	done := slices.Clone(hit)
	work := make(chan int)
	// completed is buffered to the miss count so a worker can always
	// report without blocking — that is what lets the loop below shut
	// down with a plain close+wait on cancellation.
	completed := make(chan int, misses)
	var wg sync.WaitGroup
	for w := 0; w < min(pool, misses); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				exec(i)
				completed <- i
			}
		}()
	}
	next, delivered := 0, 0
	var err error
loop:
	for delivered < n {
		// Check the context before every decision: the select below
		// chooses uniformly among ready cases, so without this a
		// cancelled stream could still schedule or emit.
		if err = ctx.Err(); err != nil {
			break loop
		}
		if done[delivered] {
			if err = emit(delivered); err != nil {
				break loop
			}
			delivered++
			continue
		}
		for next < n && hit[next] {
			next++
		}
		// Only offer work while misses remain; a nil channel parks that
		// select arm.
		var feed chan int
		if next < n {
			feed = work
		}
		select {
		case feed <- next:
			next++
		case i := <-completed:
			done[i] = true
		case <-ctx.Done():
			err = ctx.Err()
			break loop
		}
	}
	close(work)
	wg.Wait()
	return err
}
