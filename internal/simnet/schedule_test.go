package simnet

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
)

// chordRing returns a ring of n routers plus every {i, i+2} chord —
// small, connected, and it stays connected under single-link churn.
func chordRing(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
		b.AddEdge(v, (v+2)%n)
	}
	return b.Build()
}

// hookConservation installs the event-boundary invariant check: at
// every applied topology change (a window barrier, which fires onTopo)
// and, via the returned func, at run end, every offered message is
// delivered, dropped, or still in flight — nothing is double-counted or
// leaks. conservation() aggregates across shards, so the same hook
// checks every shard count.
func hookConservation(t *testing.T, nw *Network) (atEnd func()) {
	t.Helper()
	check := func(now int64, label string) {
		off, del, drop, fly := nw.conservation()
		if off != del+drop+fly {
			t.Errorf("%s (cycle %d): offered %d != delivered %d + dropped %d + in-flight %d",
				label, now, off, del, drop, fly)
		}
	}
	nw.onTopo = func(now int64) { check(now, "event boundary") }
	return func() {
		check(-1, "run end")
		_, _, drop, fly := nw.conservation()
		if fly != 0 {
			t.Errorf("run end: %d packets still in flight after drain", fly)
		}
		if nw.stats.Dropped != drop {
			t.Errorf("run end: Stats.Dropped %d != drop count %d", nw.stats.Dropped, drop)
		}
		if nw.stats.SeveredInFlight > nw.stats.Dropped {
			t.Errorf("severed %d exceeds dropped %d", nw.stats.SeveredInFlight, nw.stats.Dropped)
		}
	}
}

// runChurnConservation is the shared body of the property test and the
// fuzz target: sample a churn schedule from the raw parameters, run a
// loaded simulation over it at one shard and at 4 shards, and require
// conservation at every event boundary and at the end. Each run checks
// its own invariant; cross-worker equality is asserted elsewhere
// (TestStatsIdenticalForEveryWorkerCount).
func runChurnConservation(t *testing.T, seed int64, kindRaw, periodRaw, outageRaw, fracRaw uint8) {
	g := chordRing(16)
	spec := fault.ChurnSpec{
		Kind:       []fault.Kind{fault.Links, fault.Routers, fault.Regions}[int(kindRaw)%3],
		Fraction:   float64(fracRaw%101) / 100,
		RegionSize: 3,
		Period:     int64(periodRaw)%1500 + 200,
		Outage:     0, // set below, in (0, Period)
		Repeats:    2,
		Seed:       seed,
	}
	spec.Outage = int64(outageRaw)%(spec.Period-1) + 1
	sched, err := spec.Schedule(g)
	if err != nil {
		t.Fatalf("churn spec rejected valid-by-construction params: %v", err)
	}
	tab := routing.NewTable(g)
	nw, err := New(Config{Topo: g, Concentration: 2, Seed: seed, Schedule: sched}, tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		nw.SetWorkers(workers)
		for _, policy := range []routing.Policy{routing.Minimal, routing.UGALL} {
			nw.SetPolicy(policy)
			atEnd := hookConservation(t, nw)
			st := nw.RunLoad(func(src int, rng *rand.Rand) int { return rng.Intn(nw.Endpoints()) }, 0.3, 8)
			atEnd()
			if st.Offered == 0 {
				t.Fatalf("workers=%d policy %v: run offered no traffic", workers, policy)
			}
		}
	}
}

func TestScheduleConservationProperty(t *testing.T) {
	for i := 0; i < 40; i++ {
		seed := int64(i)*2_654_435_761 + 11
		runChurnConservation(t, seed, uint8(i), uint8(i*13), uint8(i*29), uint8(i*37))
	}
}

// FuzzScheduleConservation is the tentpole acceptance fuzz target:
// conservation must hold under arbitrary churn schedules.
func FuzzScheduleConservation(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(50), uint8(10), uint8(25))
	f.Add(int64(7), uint8(1), uint8(200), uint8(199), uint8(80))
	f.Add(int64(-3), uint8(2), uint8(0), uint8(0), uint8(100))
	f.Fuzz(runChurnConservation)
}

func TestScheduleEmptyMatchesNil(t *testing.T) {
	// The "empty schedule changes nothing" contract at the Stats level:
	// a non-nil empty schedule and no schedule at all are byte-identical
	// (golden files pin the same for the CLI surface).
	inst := topo.MustSlimFly(5)
	tab := routing.NewTable(inst.G)
	pattern := func(src int, rng *rand.Rand) int { return rng.Intn(inst.G.N() * 2) }
	var got [2]Stats
	for i, sched := range []fault.Schedule{nil, {}} {
		nw, err := New(Config{Topo: inst.G, Concentration: 2, Seed: 9, Schedule: sched}, tab)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = nw.RunLoad(pattern, 0.4, 12)
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("empty schedule perturbed the run:\nnil:   %+v\nempty: %+v", got[0], got[1])
	}
}

func TestScheduleRoundTripBeforeTrafficIsLossless(t *testing.T) {
	// A cycle-0 change that cuts links and restores them in the same
	// Change (cuts apply first) drives the table through a live
	// Repair→Restore round trip before any packet moves. Every message
	// must still be delivered: the round-tripped table routes the intact
	// topology.
	g := chordRing(12)
	cut := [][2]int32{{0, 1}, {3, 5}, {7, 8}}
	sched := fault.Schedule{{Cycle: 0, Cut: cut, Restore: cut}}
	tab := routing.NewTable(g)
	nw, err := New(Config{Topo: g, Concentration: 2, Seed: 3, Schedule: sched}, tab)
	if err != nil {
		t.Fatal(err)
	}
	atEnd := hookConservation(t, nw)
	st := nw.RunLoad(func(src int, rng *rand.Rand) int { return rng.Intn(nw.Endpoints()) }, 0.3, 10)
	atEnd()
	if st.Dropped != 0 || st.SeveredInFlight != 0 {
		t.Fatalf("lossless round trip dropped %d (severed %d)", st.Dropped, st.SeveredInFlight)
	}
	if st.Delivered != st.Offered {
		t.Fatalf("delivered %d of %d offered", st.Delivered, st.Offered)
	}
}

func TestSeveredInFlightAccounting(t *testing.T) {
	// Kill a third of the routers mid-run under heavy load and never
	// bring them back: some packets are bound to be caught in flight,
	// and every severed packet must show up in both SeveredInFlight and
	// Dropped.
	g := chordRing(18)
	var kill []int32
	var cut [][2]int32
	for r := int32(0); r < 6; r++ {
		kill = append(kill, r*3)
		for _, w := range g.Neighbors(int(r * 3)) {
			u, v := r*3, w
			if u > v {
				u, v = v, u
			}
			cut = append(cut, [2]int32{u, v})
		}
	}
	sched := fault.Schedule{{Cycle: 400, Cut: cut, Kill: kill}}
	tab := routing.NewTable(g)
	nw, err := New(Config{Topo: g, Concentration: 2, Seed: 12, Schedule: sched}, tab)
	if err != nil {
		t.Fatal(err)
	}
	atEnd := hookConservation(t, nw)
	st := nw.RunLoad(func(src int, rng *rand.Rand) int { return rng.Intn(nw.Endpoints()) }, 0.8, 30)
	atEnd()
	if st.SeveredInFlight == 0 {
		t.Fatal("mass mid-run kill severed no packets (timing or accounting broken)")
	}
	if st.Dropped < st.SeveredInFlight {
		t.Fatalf("dropped %d < severed %d", st.Dropped, st.SeveredInFlight)
	}
	if st.Delivered == 0 {
		t.Fatal("surviving routers delivered nothing")
	}
}

func TestScheduleParallelWorkerInvariance(t *testing.T) {
	// Scheduled runs shard like any other, and the engine's determinism
	// contract extends to them: the live state an event at cycle t
	// observes is a pure function of (schedule, t), so every shard
	// count produces identical statistics. (This test predates the
	// one-engine contract and zeroes MemoryBytes.)
	g := chordRing(24)
	sched := fault.Schedule{
		{Cycle: 300, Cut: [][2]int32{{0, 1}, {5, 6}}, Kill: []int32{9}},
		{Cycle: 900, Restore: [][2]int32{{0, 1}, {5, 6}}, Revive: []int32{9}},
	}
	tab := routing.NewTable(g)
	nw, err := New(Config{
		Topo: g, Concentration: 2, Seed: 4, Schedule: sched, Workers: 4,
	}, tab)
	if err != nil {
		t.Fatal(err)
	}
	if w := nw.shardCount(); w != 4 {
		t.Fatalf("shardCount() = %d with a schedule, want 4 (scheduled runs shard)", w)
	}
	pattern := func(src int, rng *rand.Rand) int { return rng.Intn(nw.Endpoints()) }
	base := nw.RunLoad(pattern, 0.4, 10)
	if base.Offered == 0 {
		t.Fatal("scheduled gate run offered no traffic")
	}
	for _, w := range []int{2, 3, 6} {
		nw.SetWorkers(w)
		st := nw.RunLoad(pattern, 0.4, 10)
		a, b := base, st
		a.MemoryBytes, b.MemoryBytes = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("workers=%d scheduled stats differ from workers=4:\n%+v\n%+v", w, a, b)
		}
	}
}

func TestRewiringScheduleUnderShiftingTraffic(t *testing.T) {
	// The exhibit's mechanics in miniature: the base topology is the
	// union of two fabric configurations, the schedule steps between
	// them, and the workload shifts phase on the same period via
	// RunLoadTimed. Conservation must hold through every rewiring step.
	const n = 16
	ring := make([][2]int32, 0, n)
	for v := int32(0); v < n; v++ {
		ring = append(ring, [2]int32{v, (v + 1) % n})
	}
	var even, odd [][2]int32
	for v := int32(0); v < n; v += 2 {
		even = append(even, [2]int32{v, (v + 2) % n})
		odd = append(odd, [2]int32{v + 1, (v + 3) % n})
	}
	cfgA := append(append([][2]int32{}, ring...), even...)
	cfgB := append(append([][2]int32{}, ring...), odd...)
	const period = 1500
	sched, err := fault.Rewiring([][][2]int32{cfgA, cfgB}, period, 4)
	if err != nil {
		t.Fatal(err)
	}
	union := graph.FromEdges(n, append(append([][2]int32{}, cfgA...), cfgB...))
	tab := routing.NewTable(union)
	nw, err := New(Config{Topo: union, Concentration: 2, Seed: 21, Schedule: sched}, tab)
	if err != nil {
		t.Fatal(err)
	}
	// One shard, then four (n=16 routers caps at 4 shards).
	for _, workers := range []int{0, 4} {
		nw.SetWorkers(workers)
		atEnd := hookConservation(t, nw)
		nep := nw.Endpoints()
		st := nw.RunLoadTimed(func(src int, now int64, rng *rand.Rand) int {
			// The hot spot rotates with the rewiring phase.
			shift := int(now/period)%4 + 1
			return (src + shift*3) % nep
		}, 0.3, 20)
		atEnd()
		if st.Delivered == 0 {
			t.Fatalf("workers=%d: rewiring run delivered nothing", workers)
		}
	}
}

func TestNewRejectsInvalidSchedule(t *testing.T) {
	g := chordRing(8)
	tab := routing.NewTable(g)
	bad := fault.Schedule{{Cycle: 5, Cut: [][2]int32{{0, 4}}}} // not an edge
	if _, err := New(Config{Topo: g, Schedule: bad}, tab); err == nil {
		t.Fatal("New accepted a schedule cutting a non-edge")
	}
	nw, err := New(Config{Topo: g}, tab)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetSchedule(bad); err == nil {
		t.Error("SetSchedule accepted an invalid schedule")
	}
	if len(nw.cfg.Schedule) != 0 {
		t.Error("rejected schedule was installed anyway")
	}
	good := fault.Schedule{{Cycle: 5, Cut: [][2]int32{{0, 1}}}}
	if err := nw.SetSchedule(good); err != nil {
		t.Errorf("SetSchedule rejected a valid schedule: %v", err)
	}
}

func TestRunBatchesRejectsSchedule(t *testing.T) {
	g := chordRing(8)
	tab := routing.NewTable(g)
	nw, err := New(Config{Topo: g, Schedule: fault.Schedule{{Cycle: 1, Kill: []int32{0}}}}, tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.RunBatches([][]Message{{{SrcEP: 0, DstEP: 1}}}); err == nil {
		t.Error("RunBatches accepted a topology-event schedule")
	}
}
