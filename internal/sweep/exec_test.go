package sweep

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestRunRepeatable: two identical parallel runs on fresh memos are
// identical (no hidden shared mutable state).
func TestRunRepeatable(t *testing.T) {
	a, err := loadGrid(t).Collect(context.Background(), Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadGrid(t).Collect(context.Background(), Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Error("identical runs diverged")
	}
}

// TestSharedArtifactsMemoized: all cells of one instance share one
// routing table, one simulator prototype and one mapping.
func TestSharedArtifactsMemoized(t *testing.T) {
	g := loadGrid(t)
	g.Instances = g.Instances[:1]
	m := &Memo{}
	if _, err := g.Collect(context.Background(), Options{Parallel: 4, Memo: m}); err != nil {
		t.Fatal(err)
	}
	if n := len(m.tables); n != 1 {
		t.Errorf("built %d routing tables for 1 instance", n)
	}
	if n := len(m.protos); n != 1 {
		t.Errorf("built %d simulator prototypes for 1 (instance, concentration)", n)
	}
	if n := len(m.maps); n != 1 {
		t.Errorf("built %d mappings for 1 (endpoints, ranks, seed)", n)
	}
	gr := g.Instances[0].Inst.G
	if m.table(gr, routing.TableOptions{}) != m.table(gr, routing.TableOptions{}) {
		t.Error("table not memoized")
	}
}

// TestCellErrorsIsolated: a failing cell reports its error without
// poisoning the rest of the grid, on either engine pool size.
func TestCellErrorsIsolated(t *testing.T) {
	motifs := &Grid{
		Instances: testInstances(t)[:1],
		Motifs: []traffic.Motif{
			traffic.FFT{NX: 4, NY: 4, NZ: 4, Iters: 1},      // 64 ranks: fits
			traffic.Halo3D26{NX: 8, NY: 8, NZ: 8, Iters: 1}, // 512 ranks: does not
		},
		Measure: MeasureMotif,
		Ranks:   64,
		Seed:    7,
	}
	sched := scheduleGrid(t)
	sched.ShiftPeriod, sched.ShiftPatterns = 0, nil
	sched.Schedules = []ScheduleAxis{{Name: "bad", Make: func(*graph.Graph, int64) (fault.Schedule, error) {
		return fault.Schedule{{Cycle: 100, Kill: []int32{1 << 20}}}, nil
	}}}
	for _, parallel := range []int{1, 2} {
		res, err := motifs.Collect(context.Background(), Options{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Err != nil || res[0].Stats.Makespan <= 0 {
			t.Errorf("parallel=%d: good motif cell failed alongside a bad one: %v", parallel, res[0].Err)
		}
		if res[1].Err == nil {
			t.Errorf("parallel=%d: oversized motif did not report an error", parallel)
		}
		res, err = sched.Collect(context.Background(), Options{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Err != nil || res[0].Stats.Delivered == 0 {
			t.Errorf("parallel=%d: static cell failed alongside a bad schedule cell: %v", parallel, res[0].Err)
		}
		if res[1].Err == nil {
			t.Errorf("parallel=%d: out-of-range schedule did not report an error", parallel)
		}
	}
}

// TestTableOptionsAndBytes covers the memory-accounting contract: the
// memo builds tables with the requested backend, tableBytes tracks the
// memoized working set, and release returns the bytes.
func TestTableOptionsAndBytes(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	m := &Memo{}
	if b := m.tableBytes(); b != 0 {
		t.Fatalf("fresh memo reports %d table bytes", b)
	}
	dense := m.table(inst.G, routing.TableOptions{})
	if dense.Store() != routing.StoreDense {
		t.Fatalf("default backend %v, want dense", dense.Store())
	}
	denseBytes := m.tableBytes()
	if denseBytes != dense.MemoryBytes() || denseBytes == 0 {
		t.Fatalf("tableBytes %d, table says %d", denseBytes, dense.MemoryBytes())
	}
	m.release(inst.G)
	if b := m.tableBytes(); b != 0 {
		t.Fatalf("%d table bytes after release", b)
	}

	packedOpts := routing.TableOptions{Store: routing.StorePacked}
	packed := m.table(inst.G, packedOpts)
	if packed.Store() != routing.StorePacked {
		t.Fatalf("backend %v, want packed", packed.Store())
	}
	if pb := m.tableBytes(); pb*6 > denseBytes {
		t.Fatalf("packed memo %d bytes, not under 1/6 of dense %d", pb, denseBytes)
	}
	if m.table(inst.G, packedOpts) != packed {
		t.Fatal("packed table was rebuilt instead of memoized")
	}

	// Registered (repaired) tables are accounted too.
	rep := packed.Repair(inst.G.Edges()[:2])
	m.register(rep.G, rep)
	if b, want := m.tableBytes(), packed.MemoryBytes()+rep.MemoryBytes(); b != want {
		t.Fatalf("tableBytes %d with a registered repair, want %d", b, want)
	}
}

// TestRegisterTableInstallsRepairedTable verifies the fault-group
// contract: a table registered for a damaged graph is the one the memo
// serves (no silent rebuild), and cells on a router-fault instance run
// with the plan's dead-router mask applied.
func TestRegisterTableInstallsRepairedTable(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	m := &Memo{}
	out := fault.Plan{Kind: fault.Routers, Fraction: 0.1, Seed: 3}.Apply(inst.G)
	repaired := m.table(inst.G, routing.TableOptions{}).Repair(out.Removed)
	m.register(repaired.G, repaired)
	if got := m.table(repaired.G, routing.TableOptions{}); got != repaired {
		t.Fatal("registered table was not reused by the memo")
	}

	g := faultGrid(t)
	g.Instances = g.Instances[:1]
	g.OmitIntact = true
	g.Faults = []FaultAxis{{Kind: fault.Routers, Fraction: 0.1, Trials: 2}}
	res, err := g.Collect(context.Background(), Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Stats.Dropped == 0 {
			t.Errorf("trial %d: router-kill cell lost no traffic; dead-router mask not applied", r.Trial)
		}
		if r.Stats.Offered != r.Stats.Delivered+r.Stats.Dropped {
			t.Errorf("trial %d: offered %d != delivered %d + dropped %d",
				r.Trial, r.Stats.Offered, r.Stats.Delivered, r.Stats.Dropped)
		}
	}
}

func TestReleaseDropsMemoEntries(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	m := &Memo{}
	t1 := m.table(inst.G, routing.TableOptions{})
	if _, err := m.prototype(inst.G, 2, routing.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	m.release(inst.G)
	if len(m.protos) != 0 {
		t.Fatal("release left the simulator prototype in place")
	}
	if t2 := m.table(inst.G, routing.TableOptions{}); t2 == t1 {
		t.Fatal("release left the memoized table in place")
	}
	m.release(inst.G)
	m.release(topo.MustSlimFly(9).G) // unknown graph: no-op, no panic
}

func TestRegisterTableRejectsMismatchedGraph(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	other := topo.MustSlimFly(9)
	tab := routing.NewTable(inst.G)
	defer func() {
		if recover() == nil {
			t.Error("register accepted a table for a different graph")
		}
	}()
	(&Memo{}).register(other.G, tab)
}

// TestStreamInOrder drives the ordered-delivery loop directly: every
// slot is delivered exactly once, in index order, with hits never
// executed and misses executed exactly once, for every pool size.
func TestStreamInOrder(t *testing.T) {
	hit := []bool{true, false, false, true, true, false, true, false, false, false}
	for _, pool := range []int{1, 2, 4, 16} {
		execs := make([]int, len(hit))
		var order []int
		err := stream(context.Background(), pool, hit,
			func(i int) { execs[i]++ },
			func(i int) error {
				order = append(order, i)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for i := range hit {
			if i >= len(order) || order[i] != i {
				t.Fatalf("pool=%d: delivery order %v", pool, order)
			}
			if want := map[bool]int{true: 0, false: 1}[hit[i]]; execs[i] != want {
				t.Errorf("pool=%d: slot %d (hit=%v) executed %d times", pool, i, hit[i], execs[i])
			}
		}
	}
}

// TestRunCancelEveryPrefix: for EVERY prefix length k, a run cancelled
// by its k-th delivery has delivered exactly the first k results of
// the uninterrupted run, bit-identical — the prefix guarantee the
// distributed fabric's resume journal is built on (a killed sweep's
// journal is always a clean prefix of cell order, so a restart can
// replay it from the cache and continue).
func TestRunCancelEveryPrefix(t *testing.T) {
	want, err := loadGrid(t).Collect(context.Background(), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 8} {
		for k := 1; k <= len(want); k++ {
			got := runCancelledAt(t, loadGrid(t), Options{Parallel: parallel}, k, len(want))
			if !reflect.DeepEqual(got, want[:k]) {
				t.Errorf("parallel=%d k=%d: delivered prefix diverges", parallel, k)
			}
		}
	}
}

// TestRunCacheCancelEveryPrefix interleaves cache hits and misses under
// cancellation at every prefix: the delivered cells are exactly the
// first k of the uninterrupted run, and every delivered miss was
// stored before it was emitted.
func TestRunCacheCancelEveryPrefix(t *testing.T) {
	full := newMemCache()
	want, err := cacheGrid(t).Collect(context.Background(), Options{Cache: full})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := cacheGrid(t).ContentKeys()
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 4} {
		for k := 1; k <= len(want); k++ {
			partial := newMemCache()
			for i := 0; i < len(keys); i += 2 { // every other cell warmed
				partial.m[keys[i]] = full.m[keys[i]]
			}
			g := cacheGrid(t)
			stored := 0
			ctx, cancel := context.WithCancel(context.Background())
			var got []Result
			err := g.Run(ctx, Options{Parallel: parallel, Cache: partial}, func(res Result) error {
				if _, ok := partial.m[keys[res.Index]]; !ok {
					t.Errorf("parallel=%d k=%d: cell %d emitted before it was stored", parallel, k, res.Index)
				}
				if res.Index%2 == 1 {
					stored++
				}
				got = append(got, res)
				if len(got) == k {
					cancel()
				}
				return nil
			})
			cancel()
			if k < len(want) && !errors.Is(err, context.Canceled) {
				t.Fatalf("parallel=%d k=%d: err = %v, want context.Canceled", parallel, k, err)
			}
			if !reflect.DeepEqual(got, want[:k]) {
				t.Errorf("parallel=%d k=%d: delivered %d cells, prefix diverges", parallel, k, len(got))
			}
			if partial.puts < stored {
				t.Errorf("parallel=%d k=%d: %d puts for %d delivered misses", parallel, k, partial.puts, stored)
			}
		}
	}
}

// runCancelledAt runs g, cancelling its context on the k-th delivery,
// and returns the delivered results. Cancelling on the final delivery
// may legitimately race the run's own completion; every earlier k must
// report the cancellation.
func runCancelledAt(t *testing.T, g *Grid, opts Options, k, total int) []Result {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []Result
	err := g.Run(ctx, opts, func(res Result) error {
		got = append(got, res)
		if len(got) == k {
			cancel()
		}
		return nil
	})
	if k < total && !errors.Is(err, context.Canceled) {
		t.Fatalf("k=%d: err = %v, want context.Canceled", k, err)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("k=%d: err = %v", k, err)
	}
	return got
}

// TestRunPreCancelled never executes or emits a cell when the context
// is already dead.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallel := range []int{1, 4} {
		m := &Memo{}
		calls := 0
		err := loadGrid(t).Run(ctx, Options{Parallel: parallel, Memo: m}, func(Result) error { calls++; return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%d: err = %v, want context.Canceled", parallel, err)
		}
		if calls != 0 || len(m.tables) != 0 {
			t.Errorf("parallel=%d: %d emits, %d tables built on a dead context", parallel, calls, len(m.tables))
		}
	}
}

// TestRunEmitErrorStopsStream propagates a consumer error raised
// mid-stream and stops delivery there.
func TestRunEmitErrorStopsStream(t *testing.T) {
	sentinel := errors.New("consumer full")
	for _, parallel := range []int{1, 3} {
		calls := 0
		err := loadGrid(t).Run(context.Background(), Options{Parallel: parallel}, func(Result) error {
			calls++
			if calls == 3 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("parallel=%d: err = %v, want sentinel", parallel, err)
		}
		if calls != 3 {
			t.Errorf("parallel=%d: emit called %d times after erroring at 3", parallel, calls)
		}
	}
}

// oneInstanceGrid is a (policy × pattern × load) load grid over a
// single instance, so every cell shares one table, one prototype and
// one mapping.
func oneInstanceGrid(t testing.TB) *Grid {
	g := loadGrid(t)
	g.Instances = g.Instances[:1]
	g.Ranks = 128
	return g
}

// TestSerialParallelEquivalence: the same grid must produce identical
// results, in identical order, on 1 worker and on many. This is the
// determinism contract of the executor: per-cell seeds come from cell
// identity, not execution order, and results are delivered in cell
// order.
func TestSerialParallelEquivalence(t *testing.T) {
	serial, err := oneInstanceGrid(t).Collect(context.Background(), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := oneInstanceGrid(t).Collect(context.Background(), Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 || len(serial) != len(parallel) {
		t.Fatalf("result counts: %d vs %d", len(serial), len(parallel))
	}
	for i, r := range serial {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
		if r.Stats.Delivered == 0 {
			t.Fatalf("cell %d: no traffic", i)
		}
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("serial and parallel sweeps diverged:\nserial:   %v\nparallel: %v", serial, parallel)
	}
}

// TestSaturationAndMotifKinds runs the two non-load measures end to end
// through one memo, which they share with each other.
func TestSaturationAndMotifKinds(t *testing.T) {
	inst := testInstances(t)[:1]
	m := &Memo{}
	sat, err := (&Grid{
		Instances: inst, Measure: MeasureSaturation, MsgsPerRank: 6, Seed: 3,
	}).Collect(context.Background(), Options{Parallel: 2, Memo: m})
	if err != nil {
		t.Fatal(err)
	}
	motif, err := (&Grid{
		Instances: inst, Policies: []routing.Policy{routing.Minimal},
		Motifs:  []traffic.Motif{traffic.FFT{NX: 8, NY: 4, NZ: 4, Iters: 1}},
		Measure: MeasureMotif, Ranks: 128, Seed: 3,
	}).Collect(context.Background(), Options{Parallel: 2, Memo: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(sat) != 1 || len(motif) != 1 {
		t.Fatalf("got %d saturation and %d motif results", len(sat), len(motif))
	}
	if sat[0].Err != nil || motif[0].Err != nil {
		t.Fatalf("errors: %v / %v", sat[0].Err, motif[0].Err)
	}
	if s := sat[0].Saturation; s <= 0 || s > 1 {
		t.Errorf("saturation %v out of range", s)
	}
	if motif[0].Stats.Makespan <= 0 {
		t.Error("motif produced no makespan")
	}
	if motif[0].Stats.MeanLatency <= 0 || motif[0].Stats.P99Latency <= 0 {
		t.Errorf("motif latency aggregation missing: %+v", motif[0].Stats)
	}
	if n := len(m.tables); n != 1 {
		t.Errorf("saturation and motif grids built %d routing tables for 1 instance", n)
	}
}

// TestJobsRunOnPackedTables runs a small load grid with the packed
// routing-table backend and checks it matches the dense results bit
// for bit, cell by cell.
func TestJobsRunOnPackedTables(t *testing.T) {
	mk := func() *Grid {
		g := loadGrid(t)
		g.Instances = g.Instances[:1]
		g.Patterns = g.Patterns[:1]
		g.Loads = []float64{0.4}
		g.MsgsPerRank = 6
		g.Seed = 77
		return g
	}
	dense, err := mk().Collect(context.Background(), Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := mk().Collect(context.Background(),
		Options{Parallel: 2, Tables: routing.TableOptions{Store: routing.StorePacked}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dense) != 2 || len(packed) != 2 {
		t.Fatalf("result counts: %d vs %d", len(dense), len(packed))
	}
	for i := range dense {
		if dense[i].Err != nil || packed[i].Err != nil {
			t.Fatalf("cell errors: %v / %v", dense[i].Err, packed[i].Err)
		}
		if !dense[i].Stats.Equal(packed[i].Stats) {
			t.Errorf("cell %d (%s) stats diverge across backends:\n dense  %+v\n packed %+v",
				i, dense[i].Policy, dense[i].Stats, packed[i].Stats)
		}
	}
}

// TestRunStreamCancel cancels a load grid mid-stream and checks the
// contract: a prompt return with ctx.Err(), and the delivered cells a
// strict prefix of the cell order.
func TestRunStreamCancel(t *testing.T) {
	g := oneInstanceGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered []int
	err := g.Run(ctx, Options{Parallel: 2}, func(res Result) error {
		delivered = append(delivered, res.Index)
		if len(delivered) == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(delivered) >= len(g.Cells()) {
		t.Fatalf("cancellation delivered all %d results", len(delivered))
	}
	for i, idx := range delivered {
		if idx != i {
			t.Fatalf("partial delivery is not a prefix: position %d has index %d", i, idx)
		}
	}
}
