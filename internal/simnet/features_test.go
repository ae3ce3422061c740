package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/topo"
)

func TestSaturationLoadOrdering(t *testing.T) {
	// The saturation knee must lie in (0, 1] and light patterns saturate
	// later than hotspots.
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	nw, err := New(Config{Topo: inst.G, Concentration: 2, Seed: 9}, tab)
	if err != nil {
		t.Fatal(err)
	}
	uniform := func(src int, rng *rand.Rand) int { return rng.Intn(nw.Endpoints()) }
	// Mild hotspot: a third of the endpoints receive all traffic, so the
	// hot ejection ports saturate around 3× lower load than uniform —
	// but are NOT already saturated at the 5% baseline.
	hotspot := func(src int, rng *rand.Rand) int { return rng.Intn(nw.Endpoints() / 3) }
	su := nw.SaturationLoad(uniform, 15, 3, 0.05)
	sh := nw.SaturationLoad(hotspot, 15, 3, 0.05)
	if su <= 0 || su > 1 || sh <= 0 || sh > 1 {
		t.Fatalf("saturation loads out of range: %v %v", su, sh)
	}
	if sh >= su {
		t.Errorf("hotspot should saturate earlier: hotspot %.3f vs uniform %.3f", sh, su)
	}
}
