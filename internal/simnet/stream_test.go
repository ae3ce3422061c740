package simnet

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
)

// refPercentile is an independent nearest-rank reference: the smallest
// sorted value whose cumulative fraction reaches p.
func refPercentile(v []int64, p float64) int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i := range s {
		if float64(i+1)/float64(len(s)) >= p {
			return s[i]
		}
	}
	return s[len(s)-1]
}

// percentile is the nearest-rank p-quantile of v through the latency
// digest, the statistic behind P99Latency.
func percentile(v []int64, p float64) int64 {
	var d latDigest
	for _, x := range v {
		d.add(x)
	}
	return d.quantile(p)
}

// TestPercentileNearestRank is the regression test for the truncated
// rank index: int(p*(len-1)) reported below the requested quantile
// (len=50, p=0.99 picked element 48 ≈ P96, not P99).
func TestPercentileNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 49, 50, 51, 100, 1000} {
		for _, p := range []float64{0.01, 0.5, 0.9, 0.95, 0.99, 1} {
			v := make([]int64, n)
			for i := range v {
				v[i] = rng.Int63n(1 << 20)
			}
			want := refPercentile(v, p)
			if got := percentile(v, p); got != want {
				t.Errorf("percentile(n=%d, p=%v) = %d, want %d", n, p, got, want)
			}
		}
	}
	// The motivating case, explicitly: 50 distinct samples, P99 must be
	// the maximum (rank ⌈0.99·50⌉ = 50), not element 48.
	v := make([]int64, 50)
	for i := range v {
		v[i] = int64(i)
	}
	if got := percentile(v, 0.99); got != 49 {
		t.Errorf("P99 of 0..49 = %d, want 49 (nearest rank)", got)
	}
}

// TestP99IsNearestRankOverAllDeliveries: P99Latency is the exact
// nearest-rank quantile over every delivery of the run — no sample
// cap, no estimate — and MeanLatency the exact mean, however many
// shards delivered them.
func TestP99IsNearestRankOverAllDeliveries(t *testing.T) {
	for _, w := range []int{1, 4} {
		nw := class1StreamNet(t)
		nw.SetWorkers(w)
		var mu sync.Mutex
		var lats []int64
		nw.onDeliver = func(lat int64) {
			mu.Lock()
			lats = append(lats, lat)
			mu.Unlock()
		}
		st := nw.RunLoad(uniformPattern(nw.Endpoints()), streamGateLoad, 32)
		if st.Delivered <= 8192 || len(lats) != st.Delivered {
			t.Fatalf("workers=%d: %d deliveries, hook saw %d; want > 8192, all observed", w, st.Delivered, len(lats))
		}
		if want := refPercentile(lats, 0.99); st.P99Latency != want {
			t.Errorf("workers=%d: P99 %d, nearest-rank over all deliveries %d", w, st.P99Latency, want)
		}
		var sum int64
		for _, l := range lats {
			sum += l
		}
		if want := float64(sum) / float64(len(lats)); st.MeanLatency != want {
			t.Errorf("workers=%d: mean %v, exact %v", w, st.MeanLatency, want)
		}
	}
}

// TestArrivalClockMeanGap pins the satellite fix for the truncated
// Poisson clock: the generator carries the fractional remainder and
// rounds each arrival to the nearest cycle, so the realized mean
// inter-arrival gap matches PacketFlits/load.
func TestArrivalClockMeanGap(t *testing.T) {
	const (
		meanGap = 16.0 / 0.3 // PacketFlits 16 at 30% load
		n       = 200_000
	)
	g := epGen{}
	g.src.state = mixSeed(99, 0)
	g.rng = rand.New(&g.src)
	prev := int64(0)
	var sum float64
	for i := 0; i < n; i++ {
		at := g.next(meanGap)
		if at < prev {
			t.Fatalf("arrival clock went backwards: %d after %d", at, prev)
		}
		if want := int64(g.t + 0.5); at != want {
			t.Fatalf("arrival %d not round-to-nearest of continuous clock %v", at, g.t)
		}
		sum += float64(at - prev)
		prev = at
	}
	got := sum / n
	if rel := math.Abs(got-meanGap) / meanGap; rel > 0.01 {
		t.Errorf("realized mean gap %.3f vs nominal %.3f (rel err %.4f)", got, meanGap, rel)
	}
}

// TestRunLoadPatternSkips pins the skip-accounting semantics: draws
// returning the source itself or an out-of-range id are counted in
// Stats.PatternSkips (no redraw), while the -1 "no traffic from this
// source" sentinel is silent.
func TestRunLoadPatternSkips(t *testing.T) {
	g := lineGraph(2)
	cfg := Config{Concentration: 2, Seed: 3} // endpoints 0..3
	nw := mustNet(t, g, cfg)
	const msgs = 5
	pattern := func(src int, rng *rand.Rand) int {
		switch src {
		case 0:
			return 0 // fixed point: self-send
		case 1:
			return -1 // sentinel: source emits no traffic
		case 2:
			return 99 // out of range
		default:
			return 0 // valid
		}
	}
	st := nw.RunLoad(pattern, 0.5, msgs)
	if st.PatternSkips != 2*msgs {
		t.Errorf("PatternSkips %d want %d (self + out-of-range draws)", st.PatternSkips, 2*msgs)
	}
	if st.Offered != msgs {
		t.Errorf("Offered %d want %d (only endpoint 3 participates)", st.Offered, msgs)
	}
	if st.Delivered != msgs {
		t.Errorf("Delivered %d want %d", st.Delivered, msgs)
	}
}

func TestRunBatchesPatternSkips(t *testing.T) {
	g := lineGraph(2)
	nw := mustNet(t, g, Config{Concentration: 1, Seed: 1})
	st := mustBatches(t, nw, [][]Message{{
		{SrcEP: 0, DstEP: 0},  // self
		{SrcEP: 0, DstEP: 9},  // out of range
		{SrcEP: 0, DstEP: -1}, // out of range
		{SrcEP: 0, DstEP: 1},  // valid
	}})
	if st.PatternSkips != 3 || st.Offered != 1 || st.Delivered != 1 {
		t.Errorf("skips/offered/delivered = %d/%d/%d want 3/1/1",
			st.PatternSkips, st.Offered, st.Delivered)
	}
}

// TestLatDigestExact: the digest's quantile and mean are exact, and
// merging digests of a partition of the samples — per shard, per
// tenant — gives exactly the digest of the whole.
func TestLatDigestExact(t *testing.T) {
	var whole latDigest
	parts := make([]latDigest, 3)
	rng := rand.New(rand.NewSource(2))
	var all []int64
	var sum int64
	for i := 0; i < 20_000; i++ {
		v := rng.Int63n(1 << 16)
		whole.add(v)
		parts[rng.Intn(len(parts))].add(v)
		all = append(all, v)
		sum += v
	}
	for _, p := range []float64{0.5, 0.99, 1} {
		if got, want := whole.quantile(p), refPercentile(all, p); got != want {
			t.Errorf("quantile(%v) %d want exact %d", p, got, want)
		}
	}
	if got, want := whole.mean(), float64(sum)/float64(len(all)); got != want {
		t.Errorf("mean %v want %v", got, want)
	}
	merged := parts[0]
	merged.counts = slices.Clone(merged.counts)
	for i := range parts[1:] {
		merged.merge(&parts[1+i])
	}
	if !reflect.DeepEqual(merged, whole) {
		t.Errorf("merged partition digest differs from the whole-run digest")
	}
	whole.reset()
	if whole.count != 0 || whole.quantile(0.99) != 0 || len(whole.counts) != 0 {
		t.Errorf("reset digest not empty: %+v", whole)
	}
}

// disconnectedNet builds a two-component network (0–1 | 2–3): packets
// between components are unreachable under every policy.
func disconnectedNet(t *testing.T, policy routing.Policy) *Network {
	t.Helper()
	bld := graph.NewBuilder(4)
	bld.AddEdge(0, 1)
	bld.AddEdge(2, 3)
	g := bld.Build()
	tab := routing.NewTable(g)
	nw, err := New(Config{Topo: g, Concentration: 1, Policy: policy, Seed: 3}, tab)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestMinimalFallbackNoIntermediate: with no viable Valiant
// intermediate (two-router graph: every candidate is src or dst), the
// non-minimal policies must settle on the minimal path instead of
// diverting.
func TestMinimalFallbackNoIntermediate(t *testing.T) {
	g := lineGraph(2)
	tab := routing.NewTable(g)
	for _, policy := range []routing.Policy{routing.Valiant, routing.UGALL} {
		t.Run(policy.String(), func(t *testing.T) {
			nw, err := New(Config{Topo: g, Concentration: 1, Policy: policy, Seed: 2}, tab)
			if err != nil {
				t.Fatal(err)
			}
			nw.reset()
			v := nw.begin(0)[0]
			p := packet{srcEP: 0, dstEP: 1, dstRouter: 1, interm: -2}
			v.decidePolicy(&p, 0, 0)
			if p.interm != -1 || p.phase != 1 {
				t.Errorf("no intermediates: interm=%d phase=%d, want minimal fallback", p.interm, p.phase)
			}
			if v.stats.ValiantTaken != 0 {
				t.Errorf("ValiantTaken %d on the fallback path", v.stats.ValiantTaken)
			}
		})
	}
}

// TestDamagedRunNonMinimal: an end-to-end Valiant or UGAL-L run across
// a partitioned topology must deliver the reachable traffic and drop
// the rest — no panic, no stranded packets.
func TestDamagedRunNonMinimal(t *testing.T) {
	for _, policy := range []routing.Policy{routing.Valiant, routing.UGALL} {
		t.Run(policy.String(), func(t *testing.T) {
			nw := disconnectedNet(t, policy)
			st := mustBatches(t, nw, [][]Message{{
				{SrcEP: 0, DstEP: 1}, // within component A
				{SrcEP: 0, DstEP: 2}, // crosses the partition: dropped
				{SrcEP: 2, DstEP: 3}, // within component B
			}})
			if st.Offered != 3 || st.Delivered != 2 || st.Dropped != 1 {
				t.Errorf("offered/delivered/dropped = %d/%d/%d want 3/2/1",
					st.Offered, st.Delivered, st.Dropped)
			}
		})
	}
}

// TestRunBatchesCarryover pins the round-boundary rule: every port and
// NIC free time is raised to the drain clock between rounds, so each
// round behaves as a fresh run time-shifted to the previous round's
// makespan — makespans compose additively on a deterministic path.
func TestRunBatchesCarryover(t *testing.T) {
	g := lineGraph(3)
	mk := func() *Network { return mustNet(t, g, Config{Concentration: 1, Seed: 4}) }
	r1 := mustBatches(t, mk(), [][]Message{{{SrcEP: 0, DstEP: 2}}})
	r2 := mustBatches(t, mk(), [][]Message{{{SrcEP: 2, DstEP: 0}}})
	nw := mk()
	both := mustBatches(t, nw, [][]Message{
		{{SrcEP: 0, DstEP: 2}},
		{{SrcEP: 2, DstEP: 0}},
	})
	if want := r1.Makespan + r2.Makespan; both.Makespan != want {
		t.Errorf("two-round makespan %d, want %d + %d = %d (round 2 must start at round 1's clock)",
			both.Makespan, r1.Makespan, r2.Makespan, want)
	}
	// After the final round the carryover has raised every free time to
	// the final clock: a subsequent round could not start early.
	for r := range nw.portFree {
		for i, f := range nw.portFree[r] {
			if f < both.Makespan {
				t.Errorf("portFree[%d][%d] = %d below final clock %d", r, i, f, both.Makespan)
			}
		}
	}
	for i := range nw.injFree {
		if nw.injFree[i] < both.Makespan || nw.ejFree[i] < both.Makespan {
			t.Errorf("NIC free times (%d, %d) below final clock %d",
				nw.injFree[i], nw.ejFree[i], both.Makespan)
		}
	}
}

// TestRunLoadStreamBacklogBounded: the point of streaming injection —
// the event queue's high-water mark tracks endpoints + in-flight
// packets, not the run's total message count.
func TestRunLoadStreamBacklogBounded(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	tab := routing.NewTable(inst.G)
	nw, err := New(Config{Topo: inst.G, Concentration: 2, Seed: 9}, tab)
	if err != nil {
		t.Fatal(err)
	}
	nep := nw.Endpoints()
	pattern := func(src int, rng *rand.Rand) int { return rng.Intn(nep) }
	const msgs = 40
	st := nw.RunLoad(pattern, 0.2, msgs)
	if st.Delivered == 0 {
		t.Fatal("idle run")
	}
	total := nep * msgs
	if peak := nw.par.peak.events; peak >= total/2 {
		t.Errorf("event-queue peak %d is O(total traffic %d); streaming should keep it near the in-flight population",
			peak, total)
	}
	if hw := len(nw.views[0].packets); hw >= total/2 {
		t.Errorf("arena high-water %d is O(total traffic %d); freelist recycling failed",
			hw, total)
	}
}
