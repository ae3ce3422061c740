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

func testInstances(t testing.TB) []Instance {
	t.Helper()
	lps, err := topo.LPS(11, 7)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := topo.SlimFly(9)
	if err != nil {
		t.Fatal(err)
	}
	return []Instance{
		{Name: lps.Name, Inst: lps, Concentration: 2},
		{Name: sf.Name, Inst: sf, Concentration: 2},
	}
}

func loadGrid(t testing.TB) *Grid {
	return &Grid{
		Instances:   testInstances(t),
		Policies:    []routing.Policy{routing.Minimal, routing.UGALL},
		Patterns:    []traffic.Pattern{traffic.Random, traffic.BitShuffle},
		Loads:       []float64{0.2, 0.5},
		Measure:     MeasureLoad,
		Ranks:       64,
		MsgsPerRank: 4,
		Seed:        11,
	}
}

func faultGrid(t testing.TB) *Grid {
	g := loadGrid(t)
	g.Policies = g.Policies[:1]
	g.Patterns = g.Patterns[:1]
	g.Loads = g.Loads[:1]
	g.Faults = []FaultAxis{
		{Kind: fault.Links, Fraction: 0.1, Trials: 2},
		{Kind: fault.Regions, Fraction: 0.2, Trials: 2},
	}
	return g
}

// TestCellsOrder pins the deterministic enumeration of a fault grid:
// instances one at a time — intact cells first, then the fault axis
// entries trial by trial — with contiguous indices.
func TestCellsOrder(t *testing.T) {
	g := faultGrid(t)
	cells := g.Cells()
	wantLen := 2 /*instances*/ * (1 /*intact*/ + 2*2 /*axes × trials*/)
	if len(cells) != wantLen {
		t.Fatalf("got %d cells, want %d", len(cells), wantLen)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has Index %d", i, c.Index)
		}
	}
	if cells[0].Fault != "none" || cells[0].Instance != 0 {
		t.Errorf("instance 0's intact cell must come first: %+v", cells[0])
	}
	if cells[1].Fault != "links" || cells[1].Trial != 0 || cells[2].Trial != 1 {
		t.Errorf("fault cells out of order: %+v %+v", cells[1], cells[2])
	}
	if cells[3].Fault != "regions" || cells[4].Trial != 1 {
		t.Errorf("second axis out of order: %+v %+v", cells[3], cells[4])
	}
	if cells[5].Fault != "none" || cells[5].Instance != 1 {
		t.Errorf("instance 1 must start with its intact cell: %+v", cells[5])
	}

	// Without a fault axis the grid is instance-major intact cells.
	g.Faults = nil
	flat := g.Cells()
	if len(flat) != 2 || flat[0].Instance != 0 || flat[1].Instance != 1 {
		t.Errorf("intact-only enumeration broken: %+v", flat)
	}
}

// TestRunParallelIndependence checks the core guarantee: identical
// results, in identical order, for any worker count — including on
// grids with a fault axis (incremental repair + registration).
func TestRunParallelIndependence(t *testing.T) {
	for name, mk := range map[string]func(testing.TB) *Grid{"load": loadGrid, "fault": faultGrid} {
		t.Run(name, func(t *testing.T) {
			serial, err := mk(t).Collect(context.Background(), Options{Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := mk(t).Collect(context.Background(), Options{Parallel: 4})
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) == 0 || len(serial) != len(parallel) {
				t.Fatalf("result counts: %d vs %d", len(serial), len(parallel))
			}
			for i := range serial {
				if serial[i].Err != nil || parallel[i].Err != nil {
					t.Fatalf("cell %d errored: %v / %v", i, serial[i].Err, parallel[i].Err)
				}
				if serial[i].Stats.Delivered == 0 {
					t.Fatalf("cell %d idle", i)
				}
				if !reflect.DeepEqual(serial[i], parallel[i]) {
					t.Errorf("cell %d diverges between worker counts", i)
				}
			}
		})
	}
}

// TestRunWorkersPlumbing: Options.Workers reaches each cell's
// simulator. Shard-count invariance must survive the whole sweep
// lifecycle, and sharded cells must conserve the one-shard cells'
// message counts cell by cell (the cache-key test in cache_test.go
// compares whole payloads across Workers values).
func TestRunWorkersPlumbing(t *testing.T) {
	serial, err := loadGrid(t).Collect(context.Background(), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := loadGrid(t).Collect(context.Background(), Options{Parallel: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	w4, err := loadGrid(t).Collect(context.Background(), Options{Parallel: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 || len(serial) != len(w2) || len(serial) != len(w4) {
		t.Fatalf("result counts: %d / %d / %d", len(serial), len(w2), len(w4))
	}
	for i := range serial {
		if serial[i].Err != nil || w2[i].Err != nil || w4[i].Err != nil {
			t.Fatalf("cell %d errored: %v / %v / %v", i, serial[i].Err, w2[i].Err, w4[i].Err)
		}
		s, a, b := serial[i].Stats, w2[i].Stats, w4[i].Stats
		if a.Offered != s.Offered || a.Delivered != s.Delivered || a.Dropped != s.Dropped {
			t.Errorf("cell %d: parallel engine broke conservation: %d/%d/%d vs serial %d/%d/%d",
				i, a.Offered, a.Delivered, a.Dropped, s.Offered, s.Delivered, s.Dropped)
		}
		a.MemoryBytes, b.MemoryBytes = 0, 0
		if !a.Equal(b) {
			t.Errorf("cell %d: stats differ between Workers=2 and Workers=4:\n%+v\n%+v", i, a, b)
		}
	}
}

// TestRunStoreIndependence: the packed backend must reproduce the
// dense results bit for bit, through the whole grid lifecycle
// including incremental repair of damaged instances.
func TestRunStoreIndependence(t *testing.T) {
	dense, err := faultGrid(t).Collect(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := faultGrid(t).Collect(context.Background(),
		Options{Tables: routing.TableOptions{Store: routing.StorePacked}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dense, packed) {
		t.Error("packed store diverges from dense on the same grid")
	}
}

// TestRunMotifMeasure runs a motif grid end to end.
func TestRunMotifMeasure(t *testing.T) {
	g := &Grid{
		Instances: testInstances(t)[:1],
		Policies:  []routing.Policy{routing.Minimal},
		Motifs: []traffic.Motif{
			traffic.Halo3D26{NX: 4, NY: 4, NZ: 4, Iters: 1},
			traffic.FFT{NX: 4, NY: 4, NZ: 4, Iters: 1},
		},
		Measure: MeasureMotif,
		Ranks:   64,
		Seed:    7,
	}
	res, err := g.Collect(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Stats.Makespan <= 0 {
			t.Errorf("motif %s produced no makespan", r.MotifTag)
		}
		if r.Stats.MeanLatency <= 0 || r.Stats.P99Latency <= 0 {
			t.Errorf("motif %s latency aggregation missing: %+v", r.MotifTag, r.Stats)
		}
	}
}

// TestRunSaturationMeasure runs a saturation grid end to end.
func TestRunSaturationMeasure(t *testing.T) {
	g := &Grid{
		Instances:     testInstances(t)[:1],
		Measure:       MeasureSaturation,
		MsgsPerRank:   4,
		LatencyFactor: 3,
		Tol:           0.05,
		Seed:          7,
	}
	res, err := g.Collect(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("results: %+v", res)
	}
	if res[0].Saturation <= 0 || res[0].Saturation > 1 {
		t.Errorf("saturation %v out of range", res[0].Saturation)
	}
}

// TestRunCancellation: a cancelled context stops the stream promptly,
// the delivered prefix is intact, and the error is ctx.Err().
func TestRunCancellation(t *testing.T) {
	g := faultGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	var got []Result
	err := g.Run(ctx, Options{Parallel: 2}, func(res Result) error {
		got = append(got, res)
		if len(got) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) >= len(g.Cells()) {
		t.Fatal("cancellation delivered the full grid")
	}
	for i, res := range got {
		if res.Index != i {
			t.Fatalf("partial delivery is not a prefix: position %d has index %d", i, res.Index)
		}
	}
}

// TestRunEmitError: a consumer error stops the grid and surfaces.
func TestRunEmitError(t *testing.T) {
	sentinel := errors.New("stop")
	calls := 0
	err := loadGrid(t).Run(context.Background(), Options{}, func(Result) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Errorf("emit called %d times after erroring", calls)
	}
}

// TestValidate rejects malformed grids with useful messages.
func TestValidate(t *testing.T) {
	bad := []*Grid{
		{},
		{Instances: testInstances(t), Measure: MeasureLoad},
		{Instances: testInstances(t), Measure: MeasureLoad, Loads: []float64{1.5}},
		{Instances: testInstances(t), Measure: MeasureMotif},
		{Instances: testInstances(t), Measure: MeasureSaturation, OmitIntact: true},
		{Instances: testInstances(t), Measure: MeasureSaturation,
			Faults: []FaultAxis{{Kind: fault.Links, Fraction: 0}}},
		{Instances: testInstances(t), Measure: MeasureSaturation,
			Policies: []routing.Policy{routing.Minimal, routing.UGALL + 1}},
	}
	for i, g := range bad {
		if err := g.Run(context.Background(), Options{}, func(Result) error { return nil }); err == nil {
			t.Errorf("grid %d validated, want error", i)
		}
	}
}

// TestSharedRunnerMemoizes: two grids sharing one Memo reuse the
// memoized intact table (the scale preset's two-phase pattern).
func TestSharedRunnerMemoizes(t *testing.T) {
	insts := testInstances(t)[:1]
	opts := Options{Parallel: 1, Memo: &Memo{}}
	sat := &Grid{Instances: insts, Measure: MeasureSaturation, MsgsPerRank: 4,
		LatencyFactor: 3, Tol: 0.05, Seed: 7}
	var peak int64
	track := func(b int64) {
		if b > peak {
			peak = b
		}
	}
	opts.OnTableBytes = track
	if _, err := sat.Collect(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	afterSat := peak
	if afterSat <= 0 {
		t.Fatal("no table bytes observed after the intact grid")
	}
	deg := &Grid{Instances: insts, OmitIntact: true,
		Faults: []FaultAxis{{Kind: fault.Links, Fraction: 0.05}},
		Loads:  []float64{0.3}, Measure: MeasureLoad,
		Ranks: insts[0].Endpoints(), MsgsPerRank: 4, Seed: 7}
	if _, err := deg.Collect(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	// The repair window holds intact + repaired tables: the peak must
	// exceed the single-table footprint of the first grid.
	if peak <= afterSat {
		t.Errorf("repair-window peak %d not above single-table %d", peak, afterSat)
	}
}

// scheduleGrid is a one-instance load grid with a churn schedule axis,
// a planned-rewiring axis (Make override), and a shifting workload.
func scheduleGrid(t testing.TB) *Grid {
	g := loadGrid(t)
	g.Instances = g.Instances[:1]
	g.Policies = g.Policies[:1]
	g.Patterns = g.Patterns[:1]
	g.Loads = g.Loads[:1]
	g.ShiftPeriod = 600
	g.ShiftPatterns = []traffic.Pattern{traffic.Random, traffic.Transpose}
	return g
}

func scheduleAxes(t testing.TB, g *Grid) []ScheduleAxis {
	edges := g.Instances[0].Inst.G.Edges()[:4]
	return []ScheduleAxis{
		{Name: "churn", Kind: fault.Links, Fraction: 0.05, Period: 400, Outage: 150, Repeats: 2, Trials: 2},
		{Name: "rewire", Make: func(gr *graph.Graph, seed int64) (fault.Schedule, error) {
			return fault.Schedule{
				{Cycle: 200, Cut: edges},
				{Cycle: 700, Restore: edges},
			}, nil
		}},
	}
}

// TestScheduleCellsOrder pins the enumeration: schedule cells follow
// the instance's intact and fault cells, trial by trial, with the axis
// name stamped and indices contiguous.
func TestScheduleCellsOrder(t *testing.T) {
	g := scheduleGrid(t)
	g.Faults = []FaultAxis{{Kind: fault.Links, Fraction: 0.1}}
	g.Schedules = scheduleAxes(t, g)
	cells := g.Cells()
	perPoint := 1                      // one policy × one pattern × one load
	want := perPoint * (1 + 1 + 2 + 1) // intact + fault trial + churn trials + rewire trial
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d carries index %d", i, c.Index)
		}
	}
	wantSched := []string{"", "", "churn", "churn", "rewire"}
	wantTrial := []int{0, 0, 0, 1, 0}
	for i, c := range cells {
		if c.Schedule != wantSched[i] || c.Trial != wantTrial[i] {
			t.Errorf("cell %d: schedule %q trial %d, want %q trial %d",
				i, c.Schedule, c.Trial, wantSched[i], wantTrial[i])
		}
	}
	if cells[1].Fault != "links" || cells[2].Fault != "none" {
		t.Errorf("fault labels off: %q then %q", cells[1].Fault, cells[2].Fault)
	}
}

// TestRunScheduleAxis: adding a schedule axis appends its cells without
// perturbing any existing cell (the grid-level empty-schedule
// invariance), results are deterministic across worker counts, and
// reconfiguration cells deliver traffic.
func TestRunScheduleAxis(t *testing.T) {
	base, err := scheduleGrid(t).Collect(context.Background(), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Grid {
		g := scheduleGrid(t)
		g.Schedules = scheduleAxes(t, g)
		return g
	}
	serial, err := mk().Collect(context.Background(), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := mk().Collect(context.Background(), Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(base)+3 {
		t.Fatalf("got %d results, want %d static + 3 schedule cells", len(serial), len(base))
	}
	if !reflect.DeepEqual(serial[:len(base)], base) {
		t.Error("schedule axis perturbed the static cells")
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("schedule grid diverges between worker counts")
	}
	for _, res := range serial[len(base):] {
		if res.Err != nil {
			t.Fatalf("schedule cell %q/%d: %v", res.Schedule, res.Trial, res.Err)
		}
		if res.Schedule == "" {
			t.Fatalf("schedule cell %d missing its axis name", res.Index)
		}
		if res.Stats.Delivered == 0 {
			t.Errorf("schedule cell %q/%d delivered nothing", res.Schedule, res.Trial)
		}
		if res.Stats.Offered != res.Stats.Delivered+res.Stats.Dropped {
			t.Errorf("schedule cell %q/%d: offered %d != delivered %d + dropped %d",
				res.Schedule, res.Trial, res.Stats.Offered, res.Stats.Delivered, res.Stats.Dropped)
		}
	}
	// The churn trials must differ (independent derived seeds) and the
	// churn axis must actually sever traffic in at least one cell.
	churn := serial[len(base) : len(base)+2]
	if reflect.DeepEqual(churn[0].Stats, churn[1].Stats) {
		t.Error("churn trials produced identical stats (seed derivation broken?)")
	}
	if churn[0].Stats.SeveredInFlight+churn[1].Stats.SeveredInFlight == 0 {
		t.Error("link churn severed no in-flight packets across two trials")
	}
}

// TestValidateSchedule rejects malformed schedule and shift axes.
func TestValidateSchedule(t *testing.T) {
	run := func(g *Grid) error {
		return g.Run(context.Background(), Options{}, func(Result) error { return nil })
	}
	g := scheduleGrid(t)
	g.Measure = MeasureSaturation
	g.Loads = nil
	g.ShiftPeriod = 0
	g.ShiftPatterns = nil
	g.Schedules = []ScheduleAxis{{Name: "churn", Kind: fault.Links, Fraction: 0.1, Period: 10, Outage: 5}}
	if err := run(g); err == nil {
		t.Error("schedule axis on a saturation grid validated")
	}
	g = scheduleGrid(t)
	g.Schedules = []ScheduleAxis{{Kind: fault.Links, Fraction: 0.1, Period: 10, Outage: 5}}
	if err := run(g); err == nil {
		t.Error("unnamed schedule axis validated")
	}
	g = scheduleGrid(t)
	g.Schedules = []ScheduleAxis{
		{Name: "x", Kind: fault.Links, Fraction: 0.1, Period: 10, Outage: 5},
		{Name: "x", Kind: fault.Routers, Fraction: 0.1, Period: 10, Outage: 5},
	}
	if err := run(g); err == nil {
		t.Error("duplicate schedule axis names validated")
	}
	g = scheduleGrid(t)
	g.ShiftPatterns = nil
	if err := run(g); err == nil {
		t.Error("ShiftPeriod without ShiftPatterns validated")
	}
	// A bad churn spec surfaces at sample time with the axis name.
	g = scheduleGrid(t)
	g.Schedules = []ScheduleAxis{{Name: "bad", Kind: fault.Links, Fraction: 0.1, Period: 10, Outage: 20}}
	if err := run(g); err == nil {
		t.Error("unsatisfiable churn timing ran")
	}
}
