package simnet

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
)

// runAt runs the class-1 instance on the given number of shards.
func runAt(tb testing.TB, workers int, policy routing.Policy, load float64, msgs int) Stats {
	tb.Helper()
	nw := class1StreamNet(tb)
	nw.SetPolicy(policy)
	nw.SetWorkers(workers)
	return nw.RunLoad(uniformPattern(nw.Endpoints()), load, msgs)
}

// TestParallelMatchesSerialClass1Gate is the correctness gate of the
// acceptance criteria: on the class-1 instance the parallel engine
// must match serial delivered/dropped counts and the exact mean/max
// latency statistics.
//
// The workload makes exactness well-defined: every endpoint sends to
// a random graph neighbor of its router, so every packet has a unique
// one-hop shortest path and routing cannot depend on which engine's
// RNG draws it; concentration 1 means each router output port carries
// a single endpoint's stream, whose injections the NIC already
// serializes one flit-time apart — so no two packets ever contend for
// the same resource in the same cycle, and the simulated schedule is
// tie-free. Under those conditions one-shard and sharded runs must
// agree on every statistic at a fully contended load, not just a
// light one. (The gate predates the single engine, under which they
// agree on every workload; see TestStatsIdenticalForEveryWorkerCount.)
func TestParallelMatchesSerialClass1Gate(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	tab := routing.NewTable(inst.G)
	neighbor := func(src int, rng *rand.Rand) int {
		nbs := inst.G.Neighbors(src)
		return int(nbs[rng.Intn(len(nbs))])
	}
	run := func(workers, msgs int) Stats {
		nw, err := New(Config{Topo: inst.G, Concentration: 1, Seed: 11, Workers: workers}, tab)
		if err != nil {
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
			if par.Offered != serial.Offered || par.Delivered != serial.Delivered ||
				par.Dropped != serial.Dropped || par.PatternSkips != serial.PatternSkips {
				t.Errorf("msgs=%d workers=%d: counts diverged from serial: %+v vs %+v",
					msgs, w, par, serial)
			}
			if par.MeanLatency != serial.MeanLatency {
				t.Errorf("msgs=%d workers=%d: mean latency %v, serial %v",
					msgs, w, par.MeanLatency, serial.MeanLatency)
			}
			if par.MaxLatency != serial.MaxLatency {
				t.Errorf("msgs=%d workers=%d: max latency %d, serial %d",
					msgs, w, par.MaxLatency, serial.MaxLatency)
			}
			if par.P99Latency != serial.P99Latency {
				t.Errorf("msgs=%d workers=%d: P99 %d, serial %d",
					msgs, w, par.P99Latency, serial.P99Latency)
			}
			if par.Makespan != serial.Makespan {
				t.Errorf("msgs=%d workers=%d: makespan %d, serial %d",
					msgs, w, par.Makespan, serial.Makespan)
			}
			if par.TotalHops != serial.TotalHops || par.MeanHops != serial.MeanHops {
				t.Errorf("msgs=%d workers=%d: hops %d/%v, serial %d/%v",
					msgs, w, par.TotalHops, par.MeanHops, serial.TotalHops, serial.MeanHops)
			}
		}
	}
}

// At contended loads path choice feeds back into queueing; message
// conservation holds regardless: the workload streams are identical
// and every offered message is delivered or dropped by static
// reachability, not by timing.
func TestParallelConservationHeavyLoad(t *testing.T) {
	for _, pol := range []routing.Policy{routing.Minimal, routing.Valiant, routing.UGALL} {
		serial := runAt(t, 1, pol, streamGateLoad, streamGateMsgs)
		par := runAt(t, 4, pol, streamGateLoad, streamGateMsgs)
		if par.Offered != serial.Offered || par.Delivered != serial.Delivered ||
			par.Dropped != serial.Dropped || par.PatternSkips != serial.PatternSkips {
			t.Errorf("policy %v: conservation broken: parallel %d/%d/%d/%d, serial %d/%d/%d/%d",
				pol, par.Offered, par.Delivered, par.Dropped, par.PatternSkips,
				serial.Offered, serial.Delivered, serial.Dropped, serial.PatternSkips)
		}
		if par.Delivered > 0 {
			lo, hi := serial.MeanLatency*0.5, serial.MeanLatency*2
			if par.MeanLatency < lo || par.MeanLatency > hi {
				t.Errorf("policy %v: parallel mean latency %v implausibly far from serial %v",
					pol, par.MeanLatency, serial.MeanLatency)
			}
		}
	}
}

// Fixed (seed, Workers) must reproduce bit-identical statistics.
func TestParallelDeterministic(t *testing.T) {
	for _, pol := range []routing.Policy{routing.Minimal, routing.UGALL} {
		a := runAt(t, 4, pol, streamGateLoad, streamGateMsgs)
		b := runAt(t, 4, pol, streamGateLoad, streamGateMsgs)
		if !a.Equal(b) {
			t.Errorf("policy %v: repeated parallel runs diverged:\n%+v\n%+v", pol, a, b)
		}
	}
}

// The canonical event order makes the simulated schedule a pure
// function of the seed, independent of the shard count: every
// sharded run must produce identical statistics (this test predates
// the one-engine contract and zeroes MemoryBytes;
// TestStatsIdenticalForEveryWorkerCount compares it too).
// The scheduled and timed-pattern extensions of this contract live in
// TestScheduleParallelWorkerInvariance (schedule_test.go) and
// TestScheduleTimedWorkerCountInvariance below.
func TestParallelWorkerCountInvariance(t *testing.T) {
	base := runAt(t, 2, routing.UGALL, streamGateLoad, streamGateMsgs)
	for _, w := range []int{3, 4, 8} {
		st := runAt(t, w, routing.UGALL, streamGateLoad, streamGateMsgs)
		a, b := base, st
		a.MemoryBytes, b.MemoryBytes = 0, 0
		if !a.Equal(b) {
			t.Errorf("workers=%d stats differ from workers=2:\n%+v\n%+v", w, a, b)
		}
	}
}

// TestScheduleParallelMatchesSerialClass1Gate is the tie-free
// scheduled gate: one-shard and sharded runs of a
// class-1 instance with a mid-run kill/revive schedule must agree
// EXACTLY on every statistic (counts, mean, max, P99, makespan,
// SeveredInFlight), for every worker count.
//
// The construction keeps the schedule out of every tie-breaking
// question: the workload is the one-hop neighbor
// pattern at concentration 1 (unique shortest paths, no port
// contention — see TestParallelMatchesSerialClass1Gate), and the
// schedule only kills routers and cuts exactly their incident links.
// No surviving packet is ever rerouted — a cut link always has a dead
// endpoint router, so packets that would cross it are dropped, not
// diverted — which makes every drop (NIC-dead, severed mid-flight,
// severed in the ejection pipeline, unreachable-destination) a pure
// function of exact event times.
func TestScheduleParallelMatchesSerialClass1Gate(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	tab := routing.NewTable(inst.G)
	kill := []int32{3, 29, 57, 88, 104, 131}
	var cut [][2]int32
	seen := map[[2]int32]bool{}
	for _, r := range kill {
		for _, w := range inst.G.Neighbors(int(r)) {
			u, v := r, w
			if u > v {
				u, v = v, u
			}
			if e := [2]int32{u, v}; !seen[e] {
				seen[e] = true
				cut = append(cut, e)
			}
		}
	}
	sched := fault.Schedule{
		{Cycle: 500, Cut: cut, Kill: kill},
		{Cycle: 1500, Restore: cut, Revive: kill},
	}
	neighbor := func(src int, rng *rand.Rand) int {
		nbs := inst.G.Neighbors(src)
		return int(nbs[rng.Intn(len(nbs))])
	}
	run := func(workers int) Stats {
		nw, err := New(Config{
			Topo: inst.G, Concentration: 1, Seed: 11, Workers: workers,
			Schedule: sched,
		}, tab)
		if err != nil {
			t.Fatal(err)
		}
		return nw.RunLoad(neighbor, streamGateLoad, 48)
	}
	serial := run(1)
	if serial.Delivered == 0 {
		t.Fatal("serial scheduled gate run delivered nothing")
	}
	if serial.SeveredInFlight == 0 {
		t.Fatal("schedule severed no packets in flight; the gate exercises nothing")
	}
	if serial.Dropped <= serial.SeveredInFlight {
		t.Fatal("schedule produced no NIC-dead/unreachable drops; the gate exercises nothing")
	}
	for _, w := range []int{2, 4, 8} {
		par := run(w)
		a, b := serial, par
		a.MemoryBytes, b.MemoryBytes = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("workers=%d scheduled run diverged from serial:\nser: %+v\npar: %+v", w, a, b)
		}
	}
}

// The worker-count invariance contract extends to the engine's
// schedule barriers and to RunLoadTimed: a churned run under a
// time-varying workload produces identical statistics for every
// shard count.
func TestScheduleTimedWorkerCountInvariance(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	tab := routing.NewTable(inst.G)
	sched, err := fault.ChurnSpec{
		Kind: fault.Links, Fraction: 0.02,
		Period: 1500, Outage: 700, Repeats: 2, Seed: 7,
	}.Schedule(inst.G)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) Stats {
		nw, err := New(Config{
			Topo: inst.G, Concentration: 4, Seed: 11, Workers: workers,
			Schedule: sched,
		}, tab)
		if err != nil {
			t.Fatal(err)
		}
		nep := nw.Endpoints()
		return nw.RunLoadTimed(func(src int, now int64, rng *rand.Rand) int {
			if (now/1500)%2 == 0 {
				return rng.Intn(nep)
			}
			return (src + 7) % nep
		}, streamGateLoad, 24)
	}
	base := run(2)
	if base.Delivered == 0 {
		t.Fatal("timed scheduled run delivered nothing")
	}
	for _, w := range []int{3, 4, 8} {
		st := run(w)
		a, b := base, st
		a.MemoryBytes, b.MemoryBytes = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("workers=%d timed scheduled stats differ from workers=2:\n%+v\n%+v", w, a, b)
		}
	}
}

// TestScheduleParallelSpeedupGate is the scheduled acceptance gate:
// the unified engine must keep the >=1.5x 4-worker speedup on a
// class-1 run whose topology churns mid-run (the schedule's window
// clipping and barrier repairs must not eat the PDES win). Timing
// gates are noise-sensitive, so it arms only under
// SPECTRALFLY_BENCH_GATE=1 and needs 4 usable cores.
func TestScheduleParallelSpeedupGate(t *testing.T) {
	if os.Getenv("SPECTRALFLY_BENCH_GATE") == "" {
		t.Skip("timing gate armed only with SPECTRALFLY_BENCH_GATE=1")
	}
	if n := runtime.GOMAXPROCS(0); n < 4 {
		t.Skipf("need 4 cores, have %d", n)
	}
	inst := topo.MustLPS(11, 7)
	sched, err := fault.ChurnSpec{
		Kind: fault.Links, Fraction: 0.02,
		Period: 3000, Outage: 1500, Repeats: 3, Seed: 7,
	}.Schedule(inst.G)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(workers int) *Network {
		tab := routing.NewTable(inst.G)
		nw, err := New(Config{
			Topo: inst.G, Concentration: 4, Seed: 11,
			Schedule: sched, Workers: workers,
		}, tab)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	serialNet, parNet := mk(0), mk(4)
	patS := uniformPattern(serialNet.Endpoints())
	patP := uniformPattern(parNet.Endpoints())
	parNet.RunLoad(patP, streamGateLoad, speedupGateMsgs) // warm shard map + arenas
	const reps = 3
	minS, minP := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < reps; i++ {
		start := time.Now()
		serialNet.RunLoad(patS, streamGateLoad, speedupGateMsgs)
		if d := time.Since(start); d < minS {
			minS = d
		}
		start = time.Now()
		parNet.RunLoad(patP, streamGateLoad, speedupGateMsgs)
		if d := time.Since(start); d < minP {
			minP = d
		}
	}
	speedup := float64(minS) / float64(minP)
	t.Logf("scheduled serial %v, 4 workers %v: %.2fx", minS, minP, speedup)
	if speedup < 1.5 {
		t.Errorf("scheduled 4-worker speedup %.2fx below the 1.5x gate (serial %v, parallel %v)",
			speedup, minS, minP)
	}
}

// TestParallelFallbacks: tiny topologies cannot shard, since fewer
// than minShardRouters per worker would remain. A 6-node ring yields
// at most one shard, so the engine must fall back to serial outright.
func TestParallelFallbacks(t *testing.T) {
	ring := graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	tiny, err := New(Config{Topo: ring, Workers: 8, Seed: 1}, routing.NewTable(ring))
	if err != nil {
		t.Fatal(err)
	}
	if got := tiny.shardCount(); got != 1 {
		t.Errorf("tiny topology: shardCount() = %d, want one shard", got)
	}
}

// Dead routers drop messages by static reachability (NIC drops and
// unreachable-next-hop drops), so delivered/dropped must match across
// shard counts even on damaged topologies.
func TestParallelDamagedConservation(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	tab := routing.NewTable(inst.G)
	dead := make([]bool, inst.G.N())
	for _, r := range []int{3, 17, 42, 90, 140} {
		dead[r] = true
	}
	for _, pol := range []routing.Policy{routing.Minimal, routing.Valiant} {
		run := func(workers int) Stats {
			nw, err := New(Config{
				Topo: inst.G, Concentration: 2, Seed: 11,
				DeadRouters: dead, Policy: pol, Workers: workers,
			}, tab)
			if err != nil {
				t.Fatal(err)
			}
			return nw.RunLoad(uniformPattern(nw.Endpoints()), 0.2, 16)
		}
		serial, par := run(1), run(4)
		if par.Offered != serial.Offered || par.Delivered != serial.Delivered || par.Dropped != serial.Dropped {
			t.Errorf("policy %v: damaged conservation broken: parallel %d/%d/%d, serial %d/%d/%d",
				pol, par.Offered, par.Delivered, par.Dropped,
				serial.Offered, serial.Delivered, serial.Dropped)
		}
		if serial.Dropped == 0 {
			t.Errorf("policy %v: damage produced no drops; the case tests nothing", pol)
		}
	}
}

const speedupGateMsgs = 256

// TestRunLoadParallelSpeedupGate is the acceptance gate of this
// change: >=1.5x at 4 workers on the class-1 instance. Timing gates
// are noise-sensitive, so it arms only under SPECTRALFLY_BENCH_GATE=1
// (CI runs it on a dedicated step), and needs 4 usable cores.
func TestRunLoadParallelSpeedupGate(t *testing.T) {
	if os.Getenv("SPECTRALFLY_BENCH_GATE") == "" {
		t.Skip("timing gate armed only with SPECTRALFLY_BENCH_GATE=1")
	}
	if n := runtime.GOMAXPROCS(0); n < 4 {
		t.Skipf("need 4 cores, have %d", n)
	}
	serialNet := class1StreamNet(t)
	parNet := class1StreamNet(t)
	parNet.SetWorkers(4)
	patS := uniformPattern(serialNet.Endpoints())
	patP := uniformPattern(parNet.Endpoints())
	parNet.RunLoad(patP, streamGateLoad, speedupGateMsgs) // warm shard map + arenas
	const reps = 3
	minS, minP := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < reps; i++ {
		start := time.Now()
		serialNet.RunLoad(patS, streamGateLoad, speedupGateMsgs)
		if d := time.Since(start); d < minS {
			minS = d
		}
		start = time.Now()
		parNet.RunLoad(patP, streamGateLoad, speedupGateMsgs)
		if d := time.Since(start); d < minP {
			minP = d
		}
	}
	speedup := float64(minS) / float64(minP)
	t.Logf("serial %v, 4 workers %v: %.2fx", minS, minP, speedup)
	if speedup < 1.5 {
		t.Errorf("4-worker speedup %.2fx below the 1.5x gate (serial %v, parallel %v)",
			speedup, minS, minP)
	}
}

// BenchmarkRunLoadParallel measures the class-1 hot path across worker
// counts (1 = one shard, drained inline).
func BenchmarkRunLoadParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			nw := class1StreamNet(b)
			nw.SetWorkers(w)
			pattern := uniformPattern(nw.Endpoints())
			nw.RunLoad(pattern, streamGateLoad, speedupGateMsgs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nw.RunLoad(pattern, streamGateLoad, speedupGateMsgs)
			}
		})
	}
}

// TestStatsIdenticalForEveryWorkerCount is the one-engine contract:
// for every policy and every run shape (static, under churn, with a
// timed pattern under churn, motif rounds), every Workers value gives
// Stats.Equal results: MemoryBytes included, and with more than 8192
// deliveries per run so the latency digests fold across shards. The
// churn onsets (cycles 500 and 1000) fall inside the runs.
func TestStatsIdenticalForEveryWorkerCount(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	tab := routing.NewTable(inst.G)
	churn, err := fault.ChurnSpec{
		Kind: fault.Links, Fraction: 0.02,
		Period: 500, Outage: 200, Repeats: 2, Seed: 7,
	}.Schedule(inst.G)
	if err != nil {
		t.Fatal(err)
	}
	const conc, msgs = 4, 16
	nep := inst.G.N() * conc
	rng := rand.New(rand.NewSource(5))
	rounds := make([][]Message, 4)
	for r := range rounds {
		for m := 0; m < msgs/len(rounds)*nep; m++ {
			rounds[r] = append(rounds[r], Message{SrcEP: m % nep, DstEP: rng.Intn(nep)})
		}
	}
	uniform := uniformPattern(nep)
	shifting := func(src int, now int64, rng *rand.Rand) int {
		if (now/500)%2 == 0 {
			return rng.Intn(nep)
		}
		return (src + 7) % nep
	}
	shapes := []struct {
		name  string
		sched fault.Schedule
		run   func(nw *Network) (Stats, error)
	}{
		{"static", nil, func(nw *Network) (Stats, error) { return nw.RunLoad(uniform, streamGateLoad, msgs), nil }},
		{"churn", churn, func(nw *Network) (Stats, error) { return nw.RunLoad(uniform, streamGateLoad, msgs), nil }},
		{"timed", churn, func(nw *Network) (Stats, error) { return nw.RunLoadTimed(shifting, streamGateLoad, msgs), nil }},
		{"batches", nil, func(nw *Network) (Stats, error) { return nw.RunBatches(rounds) }},
	}
	for _, policy := range []routing.Policy{routing.Minimal, routing.Valiant, routing.UGALL} {
		for _, sh := range shapes {
			var base Stats
			for i, w := range []int{0, 1, 2, 4, 8} {
				nw, err := New(Config{
					Topo: inst.G, Concentration: conc, Seed: 11, Workers: w,
					Policy: policy, Schedule: sh.sched,
				}, tab)
				if err != nil {
					t.Fatal(err)
				}
				st, err := sh.run(nw)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					if st.Delivered <= 8192 {
						t.Fatalf("%v/%s: %d deliveries, want > 8192", policy, sh.name, st.Delivered)
					}
					base = st
				} else if !st.Equal(base) {
					t.Errorf("%v/%s: workers=%d stats differ from workers=0:\n%+v\n%+v", policy, sh.name, w, st, base)
				}
			}
		}
	}
}
