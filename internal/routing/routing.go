// Package routing implements the routing machinery of §V: all-pairs
// shortest-path tables with full equal-cost path diversity, and the
// three routing policies evaluated in the paper — minimal, Valiant, and
// UGAL-L — together with the hop-incrementing virtual-channel
// discipline used for deadlock avoidance (d+1 VCs for minimal routing,
// 2d+1 for Valiant/UGAL paths).
//
// The table stores one BFS distance vector per destination (computed in
// parallel); next-hop sets are derived on demand as the neighbors one
// hop closer to the destination, so the storage cost is one distance
// cell per (vertex, destination) pair rather than n²·k. Three storage
// backends (Store) trade memory for lookup cost: dense int32 vectors,
// 4-bit packed shards (8× smaller — low-diameter Ramanujan instances
// fit hop counts in a nibble), and lazily materialized packed shards
// under a bounded LRU working set. All three are bit-identical in
// every distance they report.
package routing

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/graph"
)

// Policy selects a routing algorithm (§V).
type Policy int

const (
	// Minimal forwards along a uniformly random shortest path.
	Minimal Policy = iota
	// Valiant routes via a uniformly random intermediate router:
	// shortest path to the intermediate, then to the destination.
	Valiant
	// UGALL (UGAL-L) chooses per packet between the minimal and a
	// random Valiant path using only local output-queue lengths at the
	// source router, weighted by total hop count.
	UGALL
)

func (p Policy) String() string {
	switch p {
	case Minimal:
		return "minimal"
	case Valiant:
		return "valiant"
	case UGALL:
		return "ugal-l"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Valid reports whether p is one of the defined policies. Simulator
// and sweep entry points reject any other value rather than route it
// minimally under a "policy(N)" label.
func (p Policy) Valid() bool { return p >= Minimal && p <= UGALL }

// MarshalText renders the policy name, so JSON experiment output
// carries "ugal-l" rather than an enum value.
func (p Policy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a policy name, accepting exactly the forms
// MarshalText emits, so -json experiment output and saved sweep
// configurations round-trip.
func (p *Policy) UnmarshalText(text []byte) error {
	switch string(text) {
	case "minimal":
		*p = Minimal
	case "valiant":
		*p = Valiant
	case "ugal-l":
		*p = UGALL
	default:
		return fmt.Errorf("routing: unknown policy %q (want minimal, valiant or ugal-l)", text)
	}
	return nil
}

// Table is an all-pairs shortest-path oracle over a fixed topology.
//
// A Table is immutable after NewTable returns: every method only reads
// the distance vectors, so a single Table is safe for any number of
// concurrent readers (the sweep executor in internal/sweep builds one
// Table per topology instance and shares it across all workers). Methods that make randomized choices (NextHopRandom,
// SamplePath) take the caller's *rand.Rand, which is NOT safe for
// concurrent use — each goroutine must supply its own. (The lazy
// backend mutates internal caches behind atomics and a mutex, so the
// concurrent-reader contract holds for every Store.)
//
// Immutability is also what makes live-table swapping safe: Repair and
// Restore never touch the receiver — they return a NEW table (sharing
// unchanged per-destination vectors with the old one), so an engine
// may publish the new pointer at a synchronization point while other
// goroutines still read the old table. Readers that raced past the
// swap keep a consistent pre-change snapshot; there is no state in
// which either table is partially updated. The unified simulator
// engine relies on this at its schedule barriers (DESIGN.md §10), and
// TestTableSwapUnderConcurrentReaders pins it under -race.
//
// Exactly one of dense, packed and lazy is populated, per the Store
// the table was built with; every distance they report is
// bit-identical across backends.
type Table struct {
	G      *graph.Graph
	dense  [][]int32    // StoreDense: dense[dest][v] = hop distance v→dest (-1 unreachable)
	packed []*packedRow // StorePacked: one compact shard per destination
	lazy   *lazyTable   // StoreLazy: on-demand shards under a bounded LRU
	diam   int32        // largest finite distance (StoreLazy computes it on demand)
}

// NewTable computes dense BFS distance vectors toward every
// destination, fanning out across GOMAXPROCS workers. The topology
// must be connected for meaningful routing; disconnected pairs keep
// distance -1 and have no next hops.
func NewTable(g *graph.Graph) *Table {
	return NewTableOpts(g, TableOptions{})
}

// NewTableOpts builds a table with the chosen storage backend. Dense
// and packed tables pay the full all-pairs BFS up front; lazy tables
// return immediately and compute shards on first touch.
func NewTableOpts(g *graph.Graph, opts TableOptions) *Table {
	n := g.N()
	t := &Table{G: g}
	if opts.Store == StoreLazy {
		t.lazy = newLazyTable(g, opts.MaxResident)
		return t
	}
	pack := opts.Store == StorePacked
	if pack {
		t.packed = make([]*packedRow, n)
	} else {
		t.dense = make([][]int32, n)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	work := make(chan int, n)
	for d := 0; d < n; d++ {
		work <- d
	}
	close(work)
	diams := make([]int32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			queue := make([]int32, n)
			var scratch []int32
			if pack {
				scratch = make([]int32, n)
			}
			for d := range work {
				dist := scratch
				if !pack {
					dist = make([]int32, n)
				}
				g.BFS(d, dist, queue)
				if pack {
					t.packed[d] = encodeRow(dist)
				} else {
					t.dense[d] = dist
				}
				for _, x := range dist {
					if x > diams[w] {
						diams[w] = x
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, d := range diams {
		if d > t.diam {
			t.diam = d
		}
	}
	return t
}

// Store reports the storage backend the table was built with.
func (t *Table) Store() Store {
	switch {
	case t.packed != nil:
		return StorePacked
	case t.lazy != nil:
		return StoreLazy
	}
	return StoreDense
}

// MemoryBytes returns the approximate payload size of the distance
// store. For lazy tables this counts only the resident working set
// (plus fixed per-destination bookkeeping), so the value tracks actual
// footprint as shards come and go.
func (t *Table) MemoryBytes() int64 {
	switch {
	case t.dense != nil:
		var b int64
		for _, row := range t.dense {
			b += 4 * int64(len(row))
		}
		return b
	case t.packed != nil:
		var b int64
		for _, r := range t.packed {
			b += r.bytes() + 8 // row payload + slice-entry pointer
		}
		return b
	default:
		return t.lazy.memoryBytes()
	}
}

// ResidentShards returns the number of materialized per-destination
// shards: n for dense/packed tables, the current working-set size for
// lazy ones.
func (t *Table) ResidentShards() int {
	if t.lazy != nil {
		return t.lazy.residentRows()
	}
	return t.G.N()
}

// Diameter returns the largest finite hop distance. Dense and packed
// tables know it from construction; a lazy table computes it on first
// call with a full BFS sweep (retaining nothing) and memoizes it.
func (t *Table) Diameter() int {
	if t.lazy != nil {
		return int(t.lazy.diameter())
	}
	return int(t.diam)
}

// rowRef is a borrowed view of one destination's distance vector,
// letting the per-neighbor loops below bind the row once instead of
// re-resolving the backend per lookup.
type rowRef struct {
	dense []int32
	pr    *packedRow
}

func (r rowRef) at(v int) int32 {
	if r.dense != nil {
		return r.dense[v]
	}
	return r.pr.at(v)
}

// row returns the distance view toward dest, materializing it first on
// lazy tables.
func (t *Table) row(dest int) rowRef {
	switch {
	case t.dense != nil:
		return rowRef{dense: t.dense[dest]}
	case t.packed != nil:
		return rowRef{pr: t.packed[dest]}
	default:
		return rowRef{pr: t.lazy.row(dest)}
	}
}

// HopDist returns the hop distance from v to dest (-1 if unreachable).
func (t *Table) HopDist(v, dest int) int32 {
	if t.dense != nil {
		return t.dense[dest][v]
	}
	if t.packed != nil {
		return t.packed[dest].at(v)
	}
	return t.lazy.row(dest).at(v)
}

// NextHops appends to buf the neighbors of v that lie on a shortest
// path to dest and returns the extended slice. Empty when v == dest or
// dest is unreachable.
func (t *Table) NextHops(v, dest int, buf []int32) []int32 {
	row := t.row(dest)
	dv := row.at(v)
	if dv <= 0 {
		return buf
	}
	for _, w := range t.G.Neighbors(v) {
		if row.at(int(w)) == dv-1 {
			buf = append(buf, w)
		}
	}
	return buf
}

// NextHopRandom returns a uniformly random next hop from v toward dest,
// or -1 when none exists. Random selection over the equal-cost set is
// the path-diversity mechanism the paper credits for SpectralFly's
// minimal-routing performance (§VI-C).
func (t *Table) NextHopRandom(v, dest int, rng *rand.Rand) int32 {
	slot := t.NextSlotRandom(v, dest, rng)
	if slot < 0 {
		return -1
	}
	return t.G.Neighbors(v)[slot]
}

// NextSlotRandom is NextHopRandom returning the chosen neighbor's
// index in G.Neighbors(v) — the port slot a simulator indexes its
// per-port state by — or -1 when there is no next hop. It counts the
// equal-cost candidates, then makes a single rng.Intn(count) draw (none
// when the choice is forced) and walks to the chosen candidate.
func (t *Table) NextSlotRandom(v, dest int, rng *rand.Rand) int {
	row := t.row(dest)
	dv := row.at(v)
	if dv <= 0 {
		return -1
	}
	nb := t.G.Neighbors(v)
	count := 0
	for _, w := range nb {
		if row.at(int(w)) == dv-1 {
			count++
		}
	}
	if count == 0 {
		return -1
	}
	k := 0
	if count > 1 {
		k = rng.Intn(count)
	}
	for i, w := range nb {
		if row.at(int(w)) == dv-1 {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}

// PathDiversity returns the number of equal-cost next hops at v toward
// dest.
func (t *Table) PathDiversity(v, dest int) int {
	row := t.row(dest)
	dv := row.at(v)
	if dv <= 0 {
		return 0
	}
	c := 0
	for _, w := range t.G.Neighbors(v) {
		if row.at(int(w)) == dv-1 {
			c++
		}
	}
	return c
}

// SamplePath returns one uniformly-sampled shortest path from src to
// dest (inclusive of both endpoints), or nil if unreachable.
func (t *Table) SamplePath(src, dest int, rng *rand.Rand) []int32 {
	if t.HopDist(src, dest) < 0 {
		return nil
	}
	path := []int32{int32(src)}
	v := src
	for v != dest {
		next := t.NextHopRandom(v, dest, rng)
		if next < 0 {
			return nil
		}
		path = append(path, next)
		v = int(next)
	}
	return path
}

// VirtualChannels returns the VC count required for deadlock freedom
// under the paper's hop-incrementing scheme (§V-A): diameter+1 for
// minimal routing and 2·diameter+1 for Valiant/UGAL paths.
func VirtualChannels(policy Policy, diameter int) int {
	if policy == Minimal {
		return diameter + 1
	}
	return 2*diameter + 1
}
