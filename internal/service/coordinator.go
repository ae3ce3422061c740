package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// span is a half-open range of grid cell indices.
type span struct{ lo, hi int }

// workerState tracks one connected worker: its last heartbeat, the
// spans currently assigned to it, and whether it has been told the
// grid is done (the graceful-shutdown gate).
type workerState struct {
	lastBeat time.Time
	spans    []span
	toldDone bool
}

// CoordinatorConfig configures NewCoordinator.
type CoordinatorConfig struct {
	// Info is served verbatim at /v1/grid; Info.Cells sizes the grid.
	Info GridInfo
	// Chunk is the cell count per claim (default: Cells/32 clamped to
	// [1, 64]). Smaller chunks balance better and bound the work lost
	// to a dead worker; larger chunks amortize per-claim overhead and
	// the worker-side table rebuilds at range boundaries.
	Chunk int
	// HeartbeatTimeout is how long a worker may go silent before its
	// unfinished spans are re-queued (default 10s). Re-queuing a worker
	// that was merely slow is harmless: results are deterministic and
	// duplicate posts are dropped, so the race is wasted cycles, never
	// wrong output.
	HeartbeatTimeout time.Duration
	// Emit receives every completed cell exactly once, in strictly
	// increasing index order — the same prefix-delivery contract as
	// sweep.Grid.Run, reconstructed from out-of-order worker posts.
	// errMsg carries a per-cell failure ("" on success). An Emit error
	// aborts the grid: subsequent claims fail and Err reports it.
	Emit func(index int, key string, payload []byte, errMsg string) error
	// Prefilled marks cells already complete before any worker joins —
	// the warm-cache fast path. Entries are emitted (in index order)
	// during NewCoordinator and never handed to workers.
	Prefilled []JournalEntryPayload
}

// JournalEntryPayload is one prefilled cell: its journal identity plus
// the cached payload to re-emit.
type JournalEntryPayload struct {
	Index   int
	Key     string
	Payload []byte
}

// Coordinator shards a grid's cells across worker processes: it hands
// out cell ranges on demand, steals the tails of slow workers' ranges
// for idle ones, re-queues the unfinished ranges of workers whose
// heartbeats stop, and re-emits results in deterministic submission
// order regardless of completion order. It is an http.Handler (see
// protocol.go for the endpoints) and is safe for concurrent use.
type Coordinator struct {
	infoBody  []byte // Info pre-encoded once, served at /v1/grid
	chunk     int
	hbTimeout time.Duration
	emit      func(int, string, []byte, string) error
	now       func() time.Time // clock; tests substitute
	cached    int              // cells prefilled from the cache

	mu       sync.Mutex
	queue    []span                  // unassigned spans
	workers  map[string]*workerState // live workers
	done     []bool                  // per-cell completion
	buffered map[int]ResultPost      // completed but not yet emitted
	nextEmit int
	emitErr  error
	doneCh   chan struct{}
	finished bool
}

// NewCoordinator builds a coordinator for cfg.Info.Cells cells,
// emitting any prefilled prefix immediately.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	n := cfg.Info.Cells
	if n <= 0 {
		return nil, fmt.Errorf("service: coordinator needs a positive cell count, got %d", n)
	}
	if cfg.Emit == nil {
		return nil, fmt.Errorf("service: coordinator needs an Emit sink")
	}
	chunk := cfg.Chunk
	if chunk <= 0 {
		chunk = n / 32
		if chunk < 1 {
			chunk = 1
		}
		if chunk > 64 {
			chunk = 64
		}
	}
	hb := cfg.HeartbeatTimeout
	if hb <= 0 {
		hb = 10 * time.Second
	}
	body, err := json.Marshal(cfg.Info)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		infoBody:  body,
		chunk:     chunk,
		hbTimeout: hb,
		emit:      cfg.Emit,
		now:       time.Now,
		workers:   make(map[string]*workerState),
		done:      make([]bool, n),
		buffered:  make(map[int]ResultPost),
		doneCh:    make(chan struct{}),
	}
	for _, p := range cfg.Prefilled {
		if p.Index < 0 || p.Index >= n || c.done[p.Index] {
			return nil, fmt.Errorf("service: bad prefilled cell index %d", p.Index)
		}
		c.done[p.Index] = true
		c.buffered[p.Index] = ResultPost{Index: p.Index, Key: p.Key, Payload: p.Payload}
		c.cached++
	}
	c.mu.Lock()
	c.advance()
	// Queue the cells still owed, as maximal contiguous undone runs
	// chopped to the chunk size.
	for lo := 0; lo < n; {
		if c.done[lo] {
			lo++
			continue
		}
		hi := lo
		for hi < n && !c.done[hi] {
			hi++
		}
		for s := lo; s < hi; s += chunk {
			e := s + chunk
			if e > hi {
				e = hi
			}
			c.queue = append(c.queue, span{s, e})
		}
		lo = hi
	}
	err = c.emitErr
	c.mu.Unlock()
	return c, err
}

// advance emits every contiguous completed cell from nextEmit on.
// Callers hold mu.
func (c *Coordinator) advance() {
	for c.emitErr == nil && c.nextEmit < len(c.done) && c.done[c.nextEmit] {
		res := c.buffered[c.nextEmit]
		delete(c.buffered, c.nextEmit)
		if err := c.emit(c.nextEmit, res.Key, res.Payload, res.Err); err != nil {
			c.emitErr = err
			break
		}
		c.nextEmit++
	}
	if (c.nextEmit == len(c.done) || c.emitErr != nil) && !c.finished {
		c.finished = true
		close(c.doneCh)
	}
}

// reap re-queues the unfinished spans of workers whose heartbeats have
// timed out. Callers hold mu. Reaping is lazy — it runs on every
// request — which suffices because waiting workers poll: the moment
// anyone asks for work, orphaned ranges become available.
func (c *Coordinator) reap() {
	cutoff := c.now().Add(-c.hbTimeout)
	for name, w := range c.workers {
		if !w.lastBeat.Before(cutoff) {
			continue
		}
		for _, s := range w.spans {
			c.requeueUndone(s)
		}
		delete(c.workers, name)
	}
}

// requeueUndone puts the not-yet-completed cells of s back on the
// queue as contiguous spans. Callers hold mu.
func (c *Coordinator) requeueUndone(s span) {
	for lo := s.lo; lo < s.hi; {
		if c.done[lo] {
			lo++
			continue
		}
		hi := lo
		for hi < s.hi && !c.done[hi] {
			hi++
		}
		c.queue = append(c.queue, span{lo, hi})
		lo = hi
	}
}

// touch records a heartbeat for worker, creating its state on first
// contact. Callers hold mu.
func (c *Coordinator) touch(worker string) *workerState {
	w := c.workers[worker]
	if w == nil {
		w = &workerState{}
		c.workers[worker] = w
	}
	w.lastBeat = c.now()
	return w
}

// claim hands out the next range: from the queue if possible,
// otherwise by stealing the tail half of the largest outstanding
// remainder. The claiming worker's record is updated.
func (c *Coordinator) claim(worker string) ClaimResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap()
	w := c.touch(worker)
	if c.nextEmit == len(c.done) {
		w.toldDone = true
		return ClaimResponse{Done: true}
	}
	if len(c.queue) > 0 {
		s := c.queue[0]
		c.queue = c.queue[1:]
		w.spans = append(w.spans, s)
		return ClaimResponse{Lo: s.lo, Hi: s.hi}
	}
	// Work stealing: split the largest unfinished outstanding span.
	// The loser keeps its head half (it is already computing there);
	// the claimer takes the tail. If the original owner still posts
	// results for stolen cells, they are dropped as duplicates —
	// determinism makes the race benign.
	var victim *workerState
	best, bestLeft := span{}, 0
	bestIdx := -1
	for _, vw := range c.workers {
		for i, s := range vw.spans {
			lo := s.lo
			for lo < s.hi && c.done[lo] {
				lo++
			}
			if left := c.undone(span{lo, s.hi}); left > bestLeft {
				victim, best, bestLeft, bestIdx = vw, span{lo, s.hi}, left, i
			}
		}
	}
	if bestLeft >= 2 {
		mid := best.lo + (best.hi-best.lo)/2
		victim.spans[bestIdx] = span{best.lo, mid}
		stolen := span{mid, best.hi}
		w.spans = append(w.spans, stolen)
		return ClaimResponse{Lo: stolen.lo, Hi: stolen.hi}
	}
	return ClaimResponse{Wait: true}
}

// undone counts incomplete cells in s. Callers hold mu.
func (c *Coordinator) undone(s span) int {
	n := 0
	for i := s.lo; i < s.hi; i++ {
		if !c.done[i] {
			n++
		}
	}
	return n
}

// result records one completed cell and advances the emit prefix.
func (c *Coordinator) result(res ResultPost) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if res.Index < 0 || res.Index >= len(c.done) {
		return fmt.Errorf("cell index %d out of range [0,%d)", res.Index, len(c.done))
	}
	c.touch(res.Worker)
	if c.done[res.Index] {
		return nil // duplicate from a stolen or re-queued range
	}
	c.done[res.Index] = true
	c.buffered[res.Index] = res
	c.advance()
	return c.emitErr
}

// heartbeat refreshes a worker's liveness.
func (c *Coordinator) heartbeat(worker string) {
	c.mu.Lock()
	c.reap()
	c.touch(worker)
	c.mu.Unlock()
}

// Done is closed once every cell has been emitted (or the grid
// aborted; check Err).
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Err reports the abort error, if any (an Emit failure).
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.emitErr
}

// Lingering counts workers that have contacted the coordinator but
// have not yet been told the grid is done. A worker only learns of
// completion from its next claim, so a server that shuts down the
// moment the last result lands strands its workers on a dead socket;
// lingering until this reaches zero (with a cap — dead workers never
// ask) lets every live worker exit cleanly.
func (c *Coordinator) Lingering() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap()
	n := 0
	for _, w := range c.workers {
		if !w.toldDone {
			n++
		}
	}
	return n
}

// Status assembles the progress snapshot served at GET /v1/status.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap()
	st := StatusResponse{
		Cells:   len(c.done),
		Emitted: c.nextEmit,
		Cached:  c.cached,
	}
	for _, d := range c.done {
		if d {
			st.Done++
		}
	}
	for _, s := range c.queue {
		st.Queued += c.undone(s)
	}
	now := c.now()
	for name, w := range c.workers {
		claimed := 0
		for _, s := range w.spans {
			claimed += c.undone(s)
		}
		st.Claimed += claimed
		st.Workers = append(st.Workers, WorkerStatus{
			Worker:         name,
			HeartbeatAgeMs: now.Sub(w.lastBeat).Milliseconds(),
			Claimed:        claimed,
			Done:           w.toldDone,
		})
	}
	// Map iteration is randomized; a dashboard deserves a stable table.
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Worker < st.Workers[j].Worker })
	return st
}

// Remaining returns how many cells are not yet complete.
func (c *Coordinator) Remaining() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.undone(span{0, len(c.done)})
}

// Handler returns the coordinator's HTTP surface (see protocol.go).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/grid", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(c.infoBody)
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		reply(w, c.Status())
	})
	mux.HandleFunc("POST /v1/claim", func(w http.ResponseWriter, r *http.Request) {
		var req ClaimRequest
		if !decode(w, r, &req) {
			return
		}
		if err := c.Err(); err != nil {
			http.Error(w, "grid aborted: "+err.Error(), http.StatusConflict)
			return
		}
		reply(w, c.claim(req.Worker))
	})
	mux.HandleFunc("POST /v1/result", func(w http.ResponseWriter, r *http.Request) {
		var req ResultPost
		if !decode(w, r, &req) {
			return
		}
		if err := c.result(req); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatPost
		if !decode(w, r, &req) {
			return
		}
		c.heartbeat(req.Worker)
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
