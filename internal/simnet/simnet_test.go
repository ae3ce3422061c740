package simnet

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
)

func lineGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// mustBatches runs RunBatches and fails the test on error (an
// unscheduled instance never produces one).
func mustBatches(tb testing.TB, nw *Network, rounds [][]Message) Stats {
	tb.Helper()
	st, err := nw.RunBatches(rounds)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

func mustNet(t *testing.T, g *graph.Graph, cfg Config) *Network {
	t.Helper()
	cfg.Topo = g
	tab := routing.NewTable(g)
	nw, err := New(cfg, tab)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestSingleMessageLatency(t *testing.T) {
	// Two routers, one endpoint each, one message across one hop.
	// Timeline: inject serialize S + inj link L, router latency R,
	// port serialize S + link L, router latency R (at dest), eject
	// serialize S + link L.
	g := lineGraph(2)
	cfg := Config{Concentration: 1, PacketFlits: 8, RouterLatency: 3, LinkLatency: 5, Seed: 1}
	nw := mustNet(t, g, cfg)
	st := mustBatches(t, nw, [][]Message{{{SrcEP: 0, DstEP: 1}}})
	if st.Delivered != 1 {
		t.Fatalf("delivered %d", st.Delivered)
	}
	S, R, L := int64(8), int64(3), int64(5)
	want := (S + L) + R + (S + L) + R + (S + L)
	if st.MaxLatency != want {
		t.Fatalf("latency %d want %d", st.MaxLatency, want)
	}
	if st.MaxVC != 1 {
		t.Fatalf("hops %d want 1", st.MaxVC)
	}
}

func TestSameRouterDelivery(t *testing.T) {
	// Two endpoints on one router: no network hop at all.
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	g := b.Build()
	cfg := Config{Concentration: 2, PacketFlits: 4, RouterLatency: 2, LinkLatency: 3, Seed: 1}
	nw := mustNet(t, g, cfg)
	st := mustBatches(t, nw, [][]Message{{{SrcEP: 0, DstEP: 1}}})
	if st.Delivered != 1 {
		t.Fatalf("delivered %d", st.Delivered)
	}
	if st.MaxVC != 0 {
		t.Fatalf("hops %d want 0", st.MaxVC)
	}
}

func TestSerializationContention(t *testing.T) {
	// Two messages from the same endpoint must serialize through the
	// injection port: the second is delayed by exactly PacketFlits.
	g := lineGraph(2)
	cfg := Config{Concentration: 1, PacketFlits: 10, RouterLatency: 1, LinkLatency: 1, Seed: 1}
	nw := mustNet(t, g, cfg)
	st := mustBatches(t, nw, [][]Message{{
		{SrcEP: 0, DstEP: 1},
		{SrcEP: 0, DstEP: 1},
	}})
	if st.Delivered != 2 {
		t.Fatalf("delivered %d", st.Delivered)
	}
	// First message latency X; second waits 10 at injection AND 10 at
	// every shared port... but pipelining means it follows right behind:
	// its latency is X + 10.
	S, R, L := int64(10), int64(1), int64(1)
	first := (S + L) + R + (S + L) + R + (S + L)
	if st.MaxLatency != first+S {
		t.Fatalf("second message latency %d want %d", st.MaxLatency, first+S)
	}
}

func TestHopCountsMatchShortestPaths(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	cfg := Config{Concentration: 2, Seed: 3}
	nw := mustNet(t, inst.G, cfg)
	// One message between far endpoints under minimal routing: hop count
	// must equal the router-level shortest-path distance.
	tab := routing.NewTable(inst.G)
	srcEP, dstEP := 0, inst.G.N()*2-1
	st := mustBatches(t, nw, [][]Message{{{SrcEP: srcEP, DstEP: dstEP}}})
	wantHops := tab.HopDist(0, inst.G.N()-1)
	if int32(st.MaxVC) != wantHops {
		t.Fatalf("hops %d want %d", st.MaxVC, wantHops)
	}
}

func TestVCBudgetMinimal(t *testing.T) {
	// §V-A: minimal routing needs at most diameter+1 VCs; the highest
	// hop index must stay ≤ diameter.
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	cfg := Config{Topo: inst.G, Concentration: 2, Seed: 5}
	nw, err := New(cfg, tab)
	if err != nil {
		t.Fatal(err)
	}
	pattern := func(src int, rng *rand.Rand) int { return rng.Intn(nw.Endpoints()) }
	st := nw.RunLoad(pattern, 0.3, 20)
	if st.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if int(st.MaxVC) > tab.Diameter() {
		t.Errorf("minimal routing used %d hops > diameter %d", st.MaxVC, tab.Diameter())
	}
}

func TestVCBudgetValiant(t *testing.T) {
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	cfg := Config{Topo: inst.G, Concentration: 2, Policy: routing.Valiant, Seed: 6}
	nw, err := New(cfg, tab)
	if err != nil {
		t.Fatal(err)
	}
	pattern := func(src int, rng *rand.Rand) int { return rng.Intn(nw.Endpoints()) }
	st := nw.RunLoad(pattern, 0.3, 20)
	if int(st.MaxVC) > 2*tab.Diameter() {
		t.Errorf("valiant used %d hops > 2·diameter %d", st.MaxVC, 2*tab.Diameter())
	}
	if st.ValiantTaken == 0 {
		t.Error("valiant policy never took a Valiant path")
	}
	// Valiant paths are longer on average than minimal ones.
	cfgMin := Config{Topo: inst.G, Concentration: 2, Policy: routing.Minimal, Seed: 6}
	nwMin, _ := New(cfgMin, tab)
	stMin := nwMin.RunLoad(pattern, 0.3, 20)
	if st.MeanHops <= stMin.MeanHops {
		t.Errorf("valiant mean hops %.2f should exceed minimal %.2f", st.MeanHops, stMin.MeanHops)
	}
}

func TestUGALPrefersMinimalWhenUncongested(t *testing.T) {
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	cfg := Config{Topo: inst.G, Concentration: 2, Policy: routing.UGALL, Seed: 7}
	nw, err := New(cfg, tab)
	if err != nil {
		t.Fatal(err)
	}
	pattern := func(src int, rng *rand.Rand) int { return rng.Intn(nw.Endpoints()) }
	st := nw.RunLoad(pattern, 0.05, 10) // very light load
	frac := float64(st.ValiantTaken) / float64(st.Delivered)
	if frac > 0.2 {
		t.Errorf("UGAL-L took Valiant paths for %.0f%% of packets at light load", 100*frac)
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	cfg := Config{Topo: inst.G, Concentration: 4, Seed: 8}
	nw, err := New(cfg, tab)
	if err != nil {
		t.Fatal(err)
	}
	pattern := func(src int, rng *rand.Rand) int { return rng.Intn(nw.Endpoints()) }
	low := nw.RunLoad(pattern, 0.1, 40)
	high := nw.RunLoad(pattern, 0.7, 40)
	if high.MeanLatency <= low.MeanLatency {
		t.Errorf("mean latency should grow with load: %.1f (70%%) vs %.1f (10%%)",
			high.MeanLatency, low.MeanLatency)
	}
}

func TestRunLoadDeterministicPerSeed(t *testing.T) {
	inst := topo.MustSlimFly(5)
	tab := routing.NewTable(inst.G)
	pattern := func(src int, rng *rand.Rand) int { return rng.Intn(inst.G.N() * 2) }
	mk := func() Stats {
		cfg := Config{Topo: inst.G, Concentration: 2, Seed: 42}
		nw, _ := New(cfg, tab)
		return nw.RunLoad(pattern, 0.4, 25)
	}
	a, b := mk(), mk()
	if !a.Equal(b) {
		t.Errorf("same seed produced different stats:\n%+v\n%+v", a, b)
	}
}

func TestBatchesRoundsAreSequenced(t *testing.T) {
	// Two rounds must take longer than the same messages in one round
	// can finish... at minimum, makespan(2 rounds) >= makespan(round 1).
	g := lineGraph(3)
	cfg := Config{Concentration: 1, Seed: 2}
	nw := mustNet(t, g, cfg)
	r1 := mustBatches(t, nw, [][]Message{{{SrcEP: 0, DstEP: 2}}})
	r2 := mustBatches(t, nw, [][]Message{
		{{SrcEP: 0, DstEP: 2}},
		{{SrcEP: 2, DstEP: 0}},
	})
	if r2.Makespan <= r1.Makespan {
		t.Errorf("two rounds (%d) should outlast one (%d)", r2.Makespan, r1.Makespan)
	}
	if r2.Delivered != 2 {
		t.Errorf("delivered %d want 2", r2.Delivered)
	}
}

func TestNewRejectsMismatchedTable(t *testing.T) {
	g1 := lineGraph(3)
	g2 := lineGraph(3)
	tab := routing.NewTable(g2)
	if _, err := New(Config{Topo: g1}, tab); err == nil {
		t.Error("mismatched table should be rejected")
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Error("nil topo should be rejected")
	}
}

// TestNewRejectsUnknownPolicy: a value outside the defined policies is
// an error, not a run that routes minimally under a "policy(N)" label.
func TestNewRejectsUnknownPolicy(t *testing.T) {
	g := lineGraph(3)
	tab := routing.NewTable(g)
	for _, p := range []routing.Policy{-1, routing.UGALL + 1} {
		_, err := New(Config{Topo: g, Policy: p}, tab)
		if err == nil || !strings.Contains(err.Error(), "unknown routing policy") {
			t.Errorf("New(Policy %d) error = %v, want unknown routing policy", int(p), err)
		}
	}
}

func TestRunLoadInvalidLoadPanics(t *testing.T) {
	g := lineGraph(2)
	tab := routing.NewTable(g)
	nw, _ := New(Config{Topo: g}, tab)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for load 0")
		}
	}()
	nw.RunLoad(func(int, *rand.Rand) int { return 0 }, 0, 1)
}
