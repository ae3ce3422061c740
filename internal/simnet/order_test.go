package simnet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topo"
)

// TestRouterOrderMatchesStrict is the equivalence argument of the
// scheduler's router order (sched.go), checked end to end. Every want
// below is the Stats of a run popped in the total (time, seq) order — a
// global heap's order — recorded before the scheduler dropped that
// mode. For every policy, every run shape (static, under churn, timed
// pattern under churn, motif rounds) and one and four shards, router
// order must reproduce those Stats exactly, with more than 8192
// deliveries per run. The churn onsets (cycles 500 and 1000) fall
// inside the runs, so the churn shapes sever packets in flight and the
// timed pattern switches phase.
func TestRouterOrderMatchesStrict(t *testing.T) {
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
	shapes := map[string]struct {
		sched fault.Schedule
		run   func(nw *Network) (Stats, error)
	}{
		"static":  {nil, func(nw *Network) (Stats, error) { return nw.RunLoad(uniform, streamGateLoad, msgs), nil }},
		"churn":   {churn, func(nw *Network) (Stats, error) { return nw.RunLoad(uniform, streamGateLoad, msgs), nil }},
		"timed":   {churn, func(nw *Network) (Stats, error) { return nw.RunLoadTimed(shifting, streamGateLoad, msgs), nil }},
		"batches": {nil, func(nw *Network) (Stats, error) { return nw.RunBatches(rounds) }},
	}
	cases := []struct {
		policy routing.Policy
		shape  string
		want   Stats
	}{
		{routing.Minimal, "static", Stats{
			Offered: 10738, Delivered: 10738, MaxLatency: 241, MeanLatency: 142.800894021233,
			P99Latency: 200, Makespan: 1489, TotalHops: 25516, MaxVC: 3, MeanHops: 2.3762339355559696,
			PatternSkips: 14, MemoryBytes: 371092,
		}},
		{routing.Minimal, "churn", Stats{
			Offered: 10738, Delivered: 10710, Dropped: 28, MaxLatency: 241, MeanLatency: 142.98478057889824,
			P99Latency: 200, Makespan: 1489, TotalHops: 25497, MaxVC: 4, MeanHops: 2.380672268907563,
			PatternSkips: 14, SeveredInFlight: 28, MemoryBytes: 486172,
		}},
		{routing.Minimal, "timed", Stats{
			Offered: 10744, Delivered: 10715, Dropped: 29, MaxLatency: 347, MeanLatency: 147.3668688754083,
			P99Latency: 246, Makespan: 1530, TotalHops: 25417, MaxVC: 4, MeanHops: 2.3720951936537564,
			PatternSkips: 8, SeveredInFlight: 29, MemoryBytes: 487020,
		}},
		{routing.Minimal, "batches", Stats{
			Offered: 10736, Delivered: 10736, MaxLatency: 343, MeanLatency: 172.9051788375559,
			P99Latency: 248, Makespan: 1210, TotalHops: 25485, MaxVC: 3, MeanHops: 2.37378912071535,
			PatternSkips: 16, MemoryBytes: 334692,
		}},
		{routing.Valiant, "static", Stats{
			Offered: 10738, Delivered: 10738, MaxLatency: 443, MeanLatency: 241.39485937791022,
			P99Latency: 359, Makespan: 1566, TotalHops: 50840, MaxVC: 6, MeanHops: 4.734587446451854,
			ValiantTaken: 10678, PatternSkips: 14, MemoryBytes: 499772,
		}},
		{routing.Valiant, "churn", Stats{
			Offered: 10738, Delivered: 10687, Dropped: 51, MaxLatency: 443, MeanLatency: 241.8940769158791,
			P99Latency: 360, Makespan: 1566, TotalHops: 50681, MaxVC: 7, MeanHops: 4.742303733508001,
			ValiantTaken: 10678, PatternSkips: 14, SeveredInFlight: 51, MemoryBytes: 614852,
		}},
		{routing.Valiant, "timed", Stats{
			Offered: 10744, Delivered: 10691, Dropped: 53, MaxLatency: 442, MeanLatency: 243.21410532223365,
			P99Latency: 362, Makespan: 1582, TotalHops: 50882, MaxVC: 7, MeanHops: 4.75933027780376,
			ValiantTaken: 10706, PatternSkips: 8, SeveredInFlight: 53, MemoryBytes: 614844,
		}},
		{routing.Valiant, "batches", Stats{
			Offered: 10736, Delivered: 10736, MaxLatency: 453, MeanLatency: 262.3097056631893,
			P99Latency: 358, Makespan: 1685, TotalHops: 50870, MaxVC: 6, MeanHops: 4.738263785394933,
			ValiantTaken: 10683, PatternSkips: 16, MemoryBytes: 335572,
		}},
		{routing.UGALL, "static", Stats{
			Offered: 10738, Delivered: 10738, MaxLatency: 384, MeanLatency: 160.64350903333954,
			P99Latency: 284, Makespan: 1489, TotalHops: 30968, MaxVC: 6, MeanHops: 2.8839634941329857,
			ValiantTaken: 2338, PatternSkips: 14, MemoryBytes: 393448,
		}},
		{routing.UGALL, "churn", Stats{
			Offered: 10738, Delivered: 10710, Dropped: 28, MaxLatency: 384, MeanLatency: 160.86479925303453,
			P99Latency: 284, Makespan: 1489, TotalHops: 30930, MaxVC: 7, MeanHops: 2.887955182072829,
			ValiantTaken: 2317, PatternSkips: 14, SeveredInFlight: 28, MemoryBytes: 508528,
		}},
		{routing.UGALL, "timed", Stats{
			Offered: 10744, Delivered: 10715, Dropped: 29, MaxLatency: 384, MeanLatency: 165.79589360709286,
			P99Latency: 286, Makespan: 1530, TotalHops: 32355, MaxVC: 7, MeanHops: 3.0195986934204386,
			ValiantTaken: 2879, PatternSkips: 8, SeveredInFlight: 29, MemoryBytes: 508528,
		}},
		{routing.UGALL, "batches", Stats{
			Offered: 10736, Delivered: 10736, MaxLatency: 359, MeanLatency: 188.4883569299553,
			P99Latency: 309, Makespan: 1394, TotalHops: 31916, MaxVC: 6, MeanHops: 2.972801788375559,
			ValiantTaken: 2695, PatternSkips: 16, MemoryBytes: 334820,
		}},
	}
	for _, c := range cases {
		sh := shapes[c.shape]
		for _, w := range []int{1, 4} {
			nw, err := New(Config{
				Topo: inst.G, Concentration: conc, Seed: 11, Workers: w,
				Policy: c.policy, Schedule: sh.sched,
			}, tab)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sh.run(nw)
			if err != nil {
				t.Fatal(err)
			}
			if got.Delivered <= 8192 {
				t.Fatalf("%v/%s/workers=%d: %d deliveries, want > 8192", c.policy, c.shape, w, got.Delivered)
			}
			if !got.Equal(c.want) {
				t.Errorf("%v/%s/workers=%d: router order differs from the total order:\n got %+v\nwant %+v",
					c.policy, c.shape, w, got, c.want)
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
	s.reset(routers)
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
