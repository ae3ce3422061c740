package spectralfly

import (
	"math"
	"testing"
)

// mustSimulate fails the test on a Simulate error; the happy-path
// tests all use valid configurations.
func mustSimulate(t *testing.T, n *Network, cfg SimConfig) *Sim {
	t.Helper()
	sim, err := n.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestPublicAPILPSQuickstart(t *testing.T) {
	net, err := LPS(11, 7)
	if err != nil {
		t.Fatal(err)
	}
	m := net.Analyze()
	if m.Routers != 168 || m.Radix != 12 {
		t.Fatalf("shape: %+v", m)
	}
	if m.Diameter != 3 || m.Girth != 3 {
		t.Errorf("diameter/girth: %+v", m)
	}
	if !m.Ramanujan {
		t.Error("LPS(11,7) must be Ramanujan")
	}
	if math.Abs(m.Mu1-0.50) > 0.01 {
		t.Errorf("µ1 %.3f want 0.50", m.Mu1)
	}
	if m.Links != 168*12/2 {
		t.Errorf("links %d", m.Links)
	}
}

func TestPublicAPIAllFamilies(t *testing.T) {
	nets := []func() (*Network, error){
		func() (*Network, error) { return LPS(3, 5) },
		func() (*Network, error) { return SlimFly(5) },
		func() (*Network, error) { return BundleFly(13, 3) },
		func() (*Network, error) { return DragonFly(6) },
		func() (*Network, error) { return DragonFlyCustom(4, 2, 9) },
		func() (*Network, error) { return Jellyfish(60, 4, 1) },
	}
	for i, mk := range nets {
		net, err := mk()
		if err != nil {
			t.Errorf("family %d: %v", i, err)
			continue
		}
		m := net.Analyze()
		if !m.Connected {
			t.Errorf("%s disconnected", net.Name)
		}
		if m.Routers != net.G.N() {
			t.Errorf("%s metric mismatch", net.Name)
		}
	}
}

func TestPublicAPIBisectionBracket(t *testing.T) {
	net, err := SlimFly(7)
	if err != nil {
		t.Fatal(err)
	}
	upper, lower := net.Bisection(1)
	if lower > float64(upper)*1.0001 {
		t.Errorf("bounds cross: lower %.1f upper %d", lower, upper)
	}
	if nb := net.NormalizedBisection(1); nb <= 0 || nb > 0.5 {
		t.Errorf("normalized bisection %.3f", nb)
	}
}

func TestPublicAPIFailEdges(t *testing.T) {
	net, _ := LPS(11, 7)
	failed := net.FailEdges(0.2, 3)
	if failed.G.M() >= net.G.M() {
		t.Error("no edges removed")
	}
	fm := failed.Analyze()
	om := net.Analyze()
	if fm.Connected && fm.AvgDistance < om.AvgDistance {
		t.Error("average distance should not shrink under failures")
	}
	// Bisection must not panic on the (irregular) failed network; the
	// spectral lower bound degrades to 0 there.
	upper, lower := failed.Bisection(1)
	if upper <= 0 {
		t.Error("failed network should still have a positive cut")
	}
	if lower != 0 {
		t.Errorf("irregular graph lower bound should be 0, got %v", lower)
	}
}

func TestPublicAPIDegrade(t *testing.T) {
	net, _ := LPS(11, 7)
	intact := mustSimulate(t, net, SimConfig{Concentration: 2, Seed: 9}).RunUniform(0.3, 5)
	if intact.Dropped != 0 || intact.DeliveredFraction() != 1 {
		t.Fatalf("intact network lost traffic: %+v", intact)
	}

	// Link cuts: structure degrades but (while connected) no traffic is
	// lost; latency is paid in extra hops.
	links := net.Degrade(PlanRandomLinks(0.15, 3))
	if links.G.M() >= net.G.M() || links.G.N() != net.G.N() {
		t.Fatalf("link plan: m=%d n=%d", links.G.M(), links.G.N())
	}
	lst := mustSimulate(t, links, SimConfig{Concentration: 2, Seed: 9}).RunUniform(0.3, 5)
	if lst.Offered == 0 {
		t.Fatal("degraded sim idle")
	}
	if links.G.IsConnected() && lst.Dropped != 0 {
		t.Errorf("connected damaged network dropped %d messages", lst.Dropped)
	}
	if lst.MeanHops < intact.MeanHops {
		t.Errorf("damaged mean hops %.3f below intact %.3f", lst.MeanHops, intact.MeanHops)
	}

	// Router kills: the orphaned endpoints' traffic must be dropped and
	// accounted, and the delivered fraction lands near (1-f)^2.
	routers := net.Degrade(PlanRandomRouters(0.2, 4))
	rst := mustSimulate(t, routers, SimConfig{Concentration: 2, Seed: 9}).RunUniform(0.3, 5)
	if rst.Dropped == 0 {
		t.Fatal("router kills lost no traffic")
	}
	if f := rst.DeliveredFraction(); f < 0.45 || f > 0.8 {
		t.Errorf("delivered fraction %.3f, want near (1-0.2)^2 = 0.64", f)
	}

	// Region outages behave like correlated router kills.
	regions := net.Degrade(PlanRegionOutage(0.25, 8, 5))
	gst := mustSimulate(t, regions, SimConfig{Concentration: 2, Seed: 9}).RunUniform(0.3, 5)
	if gst.Dropped == 0 {
		t.Fatal("region outage lost no traffic")
	}
}

func TestPublicAPISimulation(t *testing.T) {
	net, _ := LPS(11, 7)
	sim := mustSimulate(t, net, SimConfig{Concentration: 2, Seed: 9})
	if sim.Endpoints() != 336 {
		t.Fatalf("endpoints %d", sim.Endpoints())
	}
	st := sim.RunUniform(0.3, 10)
	if st.Delivered == 0 || st.MaxLatency <= 0 {
		t.Fatalf("no traffic: %+v", st)
	}
	if sim.VirtualChannels() != sim.Diameter()+1 {
		t.Error("minimal VC budget")
	}
	pst, err := sim.RunPattern(PatternShuffle, 256, 0.3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if pst.Delivered == 0 {
		t.Error("pattern run idle")
	}
	mst, err := sim.RunMotif(Halo3D26{NX: 4, NY: 4, NZ: 4, Iters: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if mst.Makespan <= 0 {
		t.Error("motif produced no makespan")
	}
}

func TestPublicAPILayout(t *testing.T) {
	net, _ := LPS(11, 7)
	fp := net.Layout(4)
	ws := fp.Wire(0)
	if ws.Links != net.G.M() {
		t.Fatalf("links %d want %d", ws.Links, net.G.M())
	}
	if ws.AvgWire <= 0 || ws.PowerW <= 0 {
		t.Fatalf("degenerate wire stats %+v", ws)
	}
	seq := net.SequentialLayout().Wire(0)
	if ws.TotalWire >= seq.TotalWire {
		t.Error("optimized layout should beat sequential")
	}
	upper, _ := net.Bisection(1)
	if ppb := fp.PowerPerBandwidth(upper); ppb <= 0 {
		t.Error("power/bandwidth")
	}
	lat := fp.Latency(100)
	if lat.AvgNs <= 0 || lat.MaxNs < lat.AvgNs {
		t.Errorf("latency stats %+v", lat)
	}
}

func TestPublicAPILayoutFAQ(t *testing.T) {
	net, _ := LPS(11, 7)
	faq := net.LayoutFAQ(3).Wire(0)
	seq := net.SequentialLayout().Wire(0)
	if faq.Links != net.G.M() {
		t.Fatalf("FAQ links %d want %d", faq.Links, net.G.M())
	}
	if faq.TotalWire >= seq.TotalWire {
		t.Error("FAQ layout should beat sequential placement")
	}
}

func TestPublicAPIDiagnostics(t *testing.T) {
	net, _ := LPS(11, 7)
	hist, unreach := net.DistanceHistogram()
	if unreach != 0 || len(hist) != 4 {
		t.Fatalf("distance histogram %v (unreach %d)", hist, unreach)
	}
	if d := net.Discrepancy(50, 1); d.MaxDeviation <= 0 || d.MaxDeviation > d.MixingBound+1e-9 {
		t.Errorf("discrepancy stats out of range: %+v", d)
	}
	lo, hi := net.CheegerBounds()
	if lo <= 0 || hi < lo {
		t.Errorf("Cheeger bounds degenerate: [%v, %v]", lo, hi)
	}
	if r := net.Betweenness().Ratio; r < 0.99 || r > 1.01 {
		t.Errorf("LPS vertex betweenness ratio %v should be 1 (vertex-transitive)", r)
	}
	if r := net.EdgeBetweenness().Ratio; r < 0.99 {
		t.Errorf("edge betweenness ratio %v", r)
	}
}

func TestPublicAPISkyWalk(t *testing.T) {
	net, fp, err := SkyWalk(64, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !net.Analyze().Connected {
		t.Error("SkyWalk disconnected")
	}
	if fp.Wire(0).Links != net.G.M() {
		t.Error("floor plan wired wrong")
	}
}

func TestPublicAPIValiantVsMinimalHops(t *testing.T) {
	net, _ := SlimFly(7)
	min := mustSimulate(t, net, SimConfig{Concentration: 2, Policy: RoutingMinimal, Seed: 1})
	val := mustSimulate(t, net, SimConfig{Concentration: 2, Policy: RoutingValiant, Seed: 1})
	stMin := min.RunUniform(0.2, 15)
	stVal := val.RunUniform(0.2, 15)
	if stVal.MeanHops <= stMin.MeanHops {
		t.Errorf("Valiant hops %.2f should exceed minimal %.2f", stVal.MeanHops, stMin.MeanHops)
	}
	if val.VirtualChannels() != 2*val.Diameter()+1 {
		t.Error("valiant VC budget")
	}
}

func TestPublicAPIUniformSweepMatchesSerial(t *testing.T) {
	net, err := LPS(11, 7)
	if err != nil {
		t.Fatal(err)
	}
	sim := mustSimulate(t, net, SimConfig{Concentration: 2, Seed: 9})
	loads := []float64{0.1, 0.3, 0.5}
	sweep := sim.RunUniformSweep(loads, 8)
	if len(sweep) != len(loads) {
		t.Fatalf("sweep returned %d stats for %d loads", len(sweep), len(loads))
	}
	for i, load := range loads {
		serial := sim.RunUniform(load, 8)
		if !sweep[i].Equal(serial) {
			t.Errorf("load %.1f: concurrent sweep diverged from serial run:\n%+v\n%+v",
				load, sweep[i], serial)
		}
	}
}
