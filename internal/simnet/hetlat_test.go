package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
)

// testLatTable builds a deterministic non-uniform per-port latency
// table: each physical cable's latency depends only on its unordered
// endpoint pair (both directions agree, like the wire model), spread
// over 1..23 cycles so link costs genuinely differ.
func testLatTable(g *graph.Graph) *LinkLatencies {
	port := make([][]int64, g.N())
	for r := range port {
		nbs := g.Neighbors(r)
		row := make([]int64, len(nbs))
		for i, w := range nbs {
			a, b := int64(r), int64(w)
			if a > b {
				a, b = b, a
			}
			row[i] = 1 + (a*31+b*17)%23
		}
		port[r] = row
	}
	return &LinkLatencies{Port: port, NIC: 7}
}

// TestHetLatencyParallelMatchesSerialClass1Gate extends the tie-free
// class-1 gate to heterogeneous wires: with the one-hop neighbor
// pattern at concentration 1 every output port still carries a single
// endpoint's serialized stream, so no two packets ever contend for a
// resource in the same cycle — per-link latencies stretch the
// schedule but cannot introduce ties. Serial and parallel engines
// must therefore agree EXACTLY on every statistic, which pins the
// PDES lookahead rework (min over cut-link latencies): an unsafe
// lookahead would reorder arrivals and break exactness here.
func TestHetLatencyParallelMatchesSerialClass1Gate(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	tab := routing.NewTable(inst.G)
	lats := testLatTable(inst.G)
	neighbor := func(src int, rng *rand.Rand) int {
		nbs := inst.G.Neighbors(src)
		return int(nbs[rng.Intn(len(nbs))])
	}
	run := func(workers, msgs int) Stats {
		nw, err := New(Config{Topo: inst.G, Concentration: 1, Seed: 11, Workers: workers}, tab)
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.SetLinkLatencies(lats); err != nil {
			t.Fatal(err)
		}
		return nw.RunLoad(neighbor, streamGateLoad, msgs)
	}
	for _, msgs := range []int{16, 64} {
		serial := run(1, msgs)
		if serial.Delivered == 0 {
			t.Fatal("serial gate run delivered nothing")
		}
		for _, w := range []int{2, 4, 8} {
			par := run(w, msgs)
			a, b := serial, par
			a.MemoryBytes, b.MemoryBytes = 0, 0
			if !a.Equal(b) {
				t.Errorf("msgs=%d workers=%d: stats diverged from serial under per-link latencies:\n%+v\n%+v",
					msgs, w, b, a)
			}
		}
	}
}

// TestHetLatencyWorkerCountInvariance pins the shard-count invariance
// under a non-uniform table: statistics must be identical for every
// shard count, even though shard boundaries select different cut
// links (and therefore different candidate minima for the lookahead).
func TestHetLatencyWorkerCountInvariance(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	tab := routing.NewTable(inst.G)
	lats := testLatTable(inst.G)
	run := func(workers int) Stats {
		nw, err := New(Config{
			Topo: inst.G, Concentration: 4, Seed: 11, Workers: workers,
		}, tab)
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.SetLinkLatencies(lats); err != nil {
			t.Fatal(err)
		}
		return nw.RunLoad(uniformPattern(nw.Endpoints()), streamGateLoad, 16)
	}
	base := run(2)
	if base.Offered == 0 {
		t.Fatal("gate run offered no traffic")
	}
	for _, w := range []int{3, 4, 8} {
		st := run(w)
		a, b := base, st
		a.MemoryBytes, b.MemoryBytes = 0, 0
		if !a.Equal(b) {
			t.Errorf("workers=%d stats differ from workers=2 under per-link latencies:\n%+v\n%+v", w, b, a)
		}
	}
}

// TestTenantScheduleConservation runs a multi-tenant workload with
// heterogeneous wires and a mid-run kill/revive schedule at several
// shard counts: the per-tenant accounting must satisfy the same
// conservation identity as the global counters (offered = delivered +
// dropped, per tenant and in total), tenant rows must be invariant
// across every shard count, and unowned endpoints must contribute
// nothing.
func TestTenantScheduleConservation(t *testing.T) {
	g := chordRing(24)
	tab := routing.NewTable(g)
	lats := testLatTable(g)
	sched := fault.Schedule{
		{Cycle: 300, Cut: [][2]int32{{0, 1}, {5, 6}}, Kill: []int32{9}},
		{Cycle: 900, Restore: [][2]int32{{0, 1}, {5, 6}}, Revive: []int32{9}},
	}
	// Endpoints 0..15 are tenant 0, 16..39 tenant 1, 40..47 unowned.
	nep := 48
	ofEP := make([]int32, nep)
	for ep := range ofEP {
		switch {
		case ep < 16:
			ofEP[ep] = 0
		case ep < 40:
			ofEP[ep] = 1
		default:
			ofEP[ep] = -1
		}
	}
	// Tenant-internal traffic; unowned endpoints emit nothing.
	pattern := func(src int, rng *rand.Rand) int {
		switch {
		case src < 16:
			return rng.Intn(16)
		case src < 40:
			return 16 + rng.Intn(24)
		}
		return -1
	}
	run := func(workers int) Stats {
		nw, err := New(Config{
			Topo: g, Concentration: 2, Seed: 4, Schedule: sched, Workers: workers,
		}, tab)
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.SetLinkLatencies(lats); err != nil {
			t.Fatal(err)
		}
		if err := nw.SetTenants(&TenantConfig{OfEP: ofEP, Load: []float64{0.3, 0.6}}); err != nil {
			t.Fatal(err)
		}
		return nw.RunLoad(pattern, 0.4, 12)
	}
	check := func(workers int, st Stats) {
		t.Helper()
		if st.Offered == 0 || st.Delivered == 0 {
			t.Fatalf("workers=%d: degenerate run %+v", workers, st)
		}
		if st.Offered != st.Delivered+st.Dropped {
			t.Errorf("workers=%d: global conservation broken: %d != %d + %d",
				workers, st.Offered, st.Delivered, st.Dropped)
		}
		if len(st.Tenants) != 2 {
			t.Fatalf("workers=%d: %d tenant rows, want 2", workers, len(st.Tenants))
		}
		sumOff, sumDel, sumDrop := 0, 0, 0
		for ti, ts := range st.Tenants {
			if ts.Offered == 0 {
				t.Errorf("workers=%d: tenant %d offered nothing", workers, ti)
			}
			if ts.Offered != ts.Delivered+ts.Dropped {
				t.Errorf("workers=%d: tenant %d conservation broken: %d != %d + %d",
					workers, ti, ts.Offered, ts.Delivered, ts.Dropped)
			}
			sumOff += ts.Offered
			sumDel += ts.Delivered
			sumDrop += ts.Dropped
		}
		// Unowned endpoints emit nothing, so the tenant rows partition
		// the global counters exactly.
		if sumOff != st.Offered || sumDel != st.Delivered || sumDrop != st.Dropped {
			t.Errorf("workers=%d: tenant rows do not partition the run: %d/%d/%d vs %d/%d/%d",
				workers, sumOff, sumDel, sumDrop, st.Offered, st.Delivered, st.Dropped)
		}
	}
	serial := run(1)
	check(1, serial)
	base := run(2)
	check(2, base)
	// Conservation holds at every shard count, and no shard count may
	// change any statistic (the one-shard run is compared by
	// TestStatsIdenticalForEveryWorkerCount).
	for _, w := range []int{3, 4, 6} {
		st := run(w)
		check(w, st)
		a, b := base, st
		a.MemoryBytes, b.MemoryBytes = 0, 0
		if !a.Equal(b) {
			t.Errorf("workers=%d tenant stats differ from workers=2:\n%+v\n%+v", w, b, a)
		}
	}
}
