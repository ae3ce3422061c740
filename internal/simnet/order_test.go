package simnet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topo"
)

// TestCrossRouterRunsPinned pins exact fixed-seed Stats of the two
// configurations that keep the scheduler's total (time, seq) order —
// UGAL-G and finite buffers — on the class-1 instance. A per-router
// order would change them (UGAL-G's path sampling and backpressure both
// see other routers' ports), so these numbers guard the strict mode.
func TestCrossRouterRunsPinned(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	tab := routing.NewTable(inst.G)
	cases := []struct {
		name    string
		policy  routing.Policy
		buffers int
		want    Stats
	}{
		{"ugal-g", routing.UGALG, 0, Stats{
			Offered: 10736, Delivered: 10736, MaxLatency: 418, MeanLatency: 169.85860655737704,
			P99Latency: 284, Makespan: 802, TotalHops: 26177, MaxVC: 6, MeanHops: 2.4382451564828616,
			ValiantTaken: 621, PatternSkips: 16, MemoryBytes: 615724,
		}},
		{"buffers", routing.Minimal, 2, Stats{
			Offered: 10736, Delivered: 10736, MaxLatency: 352, MeanLatency: 168.54098360655738,
			P99Latency: 274, Makespan: 806, TotalHops: 25491, MaxVC: 3, MeanHops: 2.3743479880774965,
			PatternSkips: 16, MemoryBytes: 614164,
		}},
	}
	for _, c := range cases {
		nw, err := New(Config{Topo: inst.G, Concentration: 4, Seed: 1, Policy: c.policy, BufferPackets: c.buffers}, tab)
		if err != nil {
			t.Fatal(err)
		}
		if got := nw.RunLoad(uniformPattern(nw.Endpoints()), 0.7, 16); !got.Equal(c.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, c.want)
		}
	}
}

// TestRouterOrderMatchesStrict is the equivalence argument of the
// scheduler's router order (sched.go), checked end to end: for every
// policy that runs in router order, every run shape (static, under
// churn, timed pattern under churn, motif rounds) and one and four
// shards, forcing the total (time, seq) order gives Stats.Equal results,
// with more than 8192 deliveries per run.
func TestRouterOrderMatchesStrict(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	tab := routing.NewTable(inst.G)
	churn, err := fault.ChurnSpec{
		Kind: fault.Links, Fraction: 0.02,
		Period: 1500, Outage: 700, Repeats: 2, Seed: 7,
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
		if (now/1500)%2 == 0 {
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
			for _, w := range []int{1, 4} {
				var st [2]Stats
				for i, strict := range []bool{false, true} {
					nw, err := New(Config{
						Topo: inst.G, Concentration: conc, Seed: 11, Workers: w,
						Policy: policy, Schedule: sh.sched,
					}, tab)
					if err != nil {
						t.Fatal(err)
					}
					nw.forceStrict = strict
					if st[i], err = sh.run(nw); err != nil {
						t.Fatal(err)
					}
				}
				if st[0].Delivered <= 8192 {
					t.Fatalf("%v/%s/workers=%d: %d deliveries, want > 8192", policy, sh.name, w, st[0].Delivered)
				}
				if !st[0].Equal(st[1]) {
					t.Errorf("%v/%s/workers=%d: router order differs from strict order:\n%+v\n%+v",
						policy, sh.name, w, st[0], st[1])
				}
			}
		}
	}
}

// TestSchedulerRouterOrder drives the scheduler in router order with a
// randomized push/pop script shaped like the model's — arrivals at 97
// routers with unique keys pushed out of order, injections and
// deliveries, far-future events through the overflow heap, and
// same-cycle pushes (which the model only ever makes for injections)
// — and checks the router-order contract: every pushed event pops
// exactly once, pop times never decrease, and each router's arrivals
// pop in (time, seq) order.
func TestSchedulerRouterOrder(t *testing.T) {
	const routers = 97
	rng := rand.New(rand.NewSource(9))
	var s scheduler
	s.reset(routers, false)
	pending := make(map[int64]event)
	type key struct{ time, seq int64 }
	lastArrival := make([]key, routers)
	for r := range lastArrival {
		lastArrival[r] = key{-1, -1}
	}
	now, seq := int64(0), int64(0)
	push := func() {
		dt := int64(rng.Intn(40)) + 1
		kind := []int8{evArrive, evArrive, evArrive, evDeliver, evInject}[rng.Intn(5)]
		switch rng.Intn(10) {
		case 0:
			dt = int64(rng.Intn(8 * wheelSize)) // far future: overflow path
		case 1:
			dt, kind = 0, evInject // same-cycle push
		}
		// Unique keys pushed out of order (an odd multiplier is a
		// bijection mod 2^31).
		e := event{time: now + dt, seq: seq * 2654435761 % (1 << 31), at: int32(rng.Intn(routers)), kind: kind}
		seq++
		pending[e.seq] = e
		s.push(e)
	}
	pop := func(step int) {
		ep := s.popBefore(math.MaxInt64)
		if ep == nil {
			t.Fatalf("step %d: nil pop with %d events pending", step, len(pending))
		}
		e := *ep
		if want, ok := pending[e.seq]; !ok || want != e {
			t.Fatalf("step %d: popped %+v, which is not pending (or popped twice)", step, e)
		}
		delete(pending, e.seq)
		if e.time < now {
			t.Fatalf("step %d: pop time %d before previous pop time %d", step, e.time, now)
		}
		now = e.time
		if e.kind == evArrive {
			k := key{e.time, e.seq}
			if l := lastArrival[e.at]; k.time < l.time || k.time == l.time && k.seq < l.seq {
				t.Fatalf("step %d: router %d popped %+v after (time %d, seq %d)", step, e.at, k, l.time, l.seq)
			}
			lastArrival[e.at] = k
		}
	}
	for i := 0; i < 40_000; i++ {
		if len(pending) == 0 || (s.count < 600 && rng.Intn(3) > 0) {
			push()
			continue
		}
		pop(i)
	}
	for len(pending) > 0 {
		pop(-1)
	}
	if s.count != 0 || s.popBefore(math.MaxInt64) != nil {
		t.Fatalf("scheduler holds %d events after drain", s.count)
	}
}
