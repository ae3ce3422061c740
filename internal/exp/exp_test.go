package exp

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func TestTable1QuickMatchesPaper(t *testing.T) {
	rows, err := Table1([]int{0}, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d want 4", len(rows))
	}
	for i, row := range rows {
		want := topo.TableIPaperValues[0][i]
		if row.Name != want.Name || row.Routers != want.Routers || row.Radix != want.Radix {
			t.Errorf("row %d identity mismatch: %+v vs %+v", i, row, want)
		}
		if row.Diameter != want.Diameter {
			t.Errorf("%s diameter %d want %d", row.Name, row.Diameter, want.Diameter)
		}
		if row.Girth != want.Girth {
			t.Errorf("%s girth %d want %d", row.Name, row.Girth, want.Girth)
		}
		if math.Abs(row.Dist-want.Dist) > 0.12 {
			t.Errorf("%s dist %.3f want %.2f", row.Name, row.Dist, want.Dist)
		}
		if math.Abs(row.Mu1-want.Mu1) > 0.12 {
			t.Errorf("%s µ1 %.3f want %.2f", row.Name, row.Mu1, want.Mu1)
		}
	}
	var buf bytes.Buffer
	FprintTable1(&buf, rows)
	if buf.Len() == 0 {
		t.Error("no output")
	}
}

func TestFig4FeasibleSmall(t *testing.T) {
	points := Fig4Feasible(60)
	if len(points) == 0 {
		t.Fatal("no feasible points")
	}
	sizes := Fig4FeasibleSizes(40, 40, 40, 40, 12)
	if len(sizes.LPS) == 0 || len(sizes.SlimFly) == 0 || len(sizes.DragonFly) == 0 || len(sizes.BundleFlyMax) == 0 {
		t.Fatal("missing family in size plot")
	}
	// BundleFlyMax must be strictly increasing in radix with unique radix.
	for i := 1; i < len(sizes.BundleFlyMax); i++ {
		if sizes.BundleFlyMax[i].Radix <= sizes.BundleFlyMax[i-1].Radix {
			t.Fatal("BundleFlyMax not sorted/unique by radix")
		}
	}
}

func TestFig4NormalizedBisectionShape(t *testing.T) {
	rows, err := Fig4NormalizedBisection(20, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Normalized <= 0 || r.Normalized > 0.5 {
			t.Errorf("%s normalized bisection %.3f out of plausible range", r.Name, r.Normalized)
		}
		if r.CutLower > float64(r.CutUpper)*1.0001 {
			t.Errorf("%s Fiedler bound %.1f exceeds upper bound %d", r.Name, r.CutLower, r.CutUpper)
		}
	}
}

func TestFig4RawBisectionBracketsAndOrder(t *testing.T) {
	rows, err := Fig4RawBisection([]int{1}, Quick)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]BisectionRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.CutLower > float64(r.CutUpper)*1.0001 {
			t.Errorf("%s: bounds cross (%f > %d)", r.Name, r.CutLower, r.CutUpper)
		}
	}
	// §IV-d: LPS has larger bisection than similarly sized SF, and both
	// beat DF by a wide margin.
	lps, sf, df := byName["LPS(23,11)"], byName["SF(17)"], byName["DF(24)"]
	if float64(lps.CutUpper)/float64(lps.Vertices) <= float64(df.CutUpper)/float64(df.Vertices) {
		t.Errorf("LPS per-vertex bisection should exceed DragonFly: %+v vs %+v", lps, df)
	}
	if lps.Normalized <= sf.Normalized {
		t.Errorf("LPS(23,11) normalized bisection %.3f should exceed SF(17) %.3f",
			lps.Normalized, sf.Normalized)
	}
}

func TestFig5QuickShape(t *testing.T) {
	points, err := Fig5(0, Quick, Fig5Options{
		Proportions:   []float64{0, 0.2},
		MinTrials:     2,
		MaxTrials:     2,
		SkipBisection: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 topologies × 2 proportions.
	if len(points) != 8 {
		t.Fatalf("points %d want 8", len(points))
	}
	// Failures must not shrink diameter or average hops.
	byName := map[string][]Fig5Point{}
	for _, p := range points {
		byName[p.Name] = append(byName[p.Name], p)
	}
	for name, ps := range byName {
		if ps[1].Diameter < ps[0].Diameter {
			t.Errorf("%s: diameter decreased under failures (%v -> %v)", name, ps[0].Diameter, ps[1].Diameter)
		}
		if ps[1].AvgHop < ps[0].AvgHop {
			t.Errorf("%s: avg hops decreased under failures", name)
		}
	}
}

func TestSimInstancesQuickShape(t *testing.T) {
	instances, err := SimInstances(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 4 {
		t.Fatalf("%d instances want 4", len(instances))
	}
	for _, si := range instances {
		if si.Endpoints() < 512 {
			t.Errorf("%s has only %d endpoints; ranks won't fit", si.Name, si.Endpoints())
		}
	}
	// Instance order: LPS, SF, BF, DF (DragonFly last = baseline).
	if instances[3].Name[:2] != "DF" {
		t.Errorf("baseline instance should be DragonFly, got %s", instances[3].Name)
	}
}

func TestFig7QuickRuns(t *testing.T) {
	points, err := Fig7(Quick, SimOptions{
		Ranks:       128,
		MsgsPerRank: 6,
		Loads:       []float64{0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points %d want 4 (one per topology)", len(points))
	}
	for _, p := range points {
		if p.MaxLatency <= 0 {
			t.Errorf("%s: no traffic simulated", p.Topology)
		}
		if p.Speedup <= 0 {
			t.Errorf("%s: speedup %f", p.Topology, p.Speedup)
		}
	}
	// DragonFly's speedup relative to itself is exactly 1.
	for _, p := range points {
		if p.Topology[:2] == "DF" && math.Abs(p.Speedup-1) > 1e-9 {
			t.Errorf("baseline speedup %f != 1", p.Speedup)
		}
	}
}

func TestRunMotifsQuick(t *testing.T) {
	points, err := RunMotifs(Quick, routing.Minimal, SimOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// 4 topologies × 4 motifs.
	if len(points) != 16 {
		t.Fatalf("points %d want 16", len(points))
	}
	motifs := map[string]bool{}
	for _, p := range points {
		motifs[p.Motif] = true
		if p.Makespan <= 0 {
			t.Errorf("%s/%s produced no makespan", p.Topology, p.Motif)
		}
	}
	for _, m := range []string{"Halo3D-26", "Sweep3D", "FFT (balanced)", "FFT (unbalanced)"} {
		if !motifs[m] {
			t.Errorf("motif %s missing", m)
		}
	}
}

func TestTable2QuickShape(t *testing.T) {
	rows, err := Table2(Quick, Table2Options{Pairs: 1, SkyWalkRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d want 2 (LPS + SF)", len(rows))
	}
	for _, r := range rows {
		if r.Electrical+r.Optical != r.Routers*r.Radix/2 {
			t.Errorf("%s: links %d+%d != nk/2 = %d", r.Name, r.Electrical, r.Optical, r.Routers*r.Radix/2)
		}
		if r.AvgWire <= 0 || r.MaxWire < r.AvgWire {
			t.Errorf("%s: wire stats degenerate: %+v", r.Name, r)
		}
		if r.PowerW <= 0 || r.PowerPerBW <= 0 {
			t.Errorf("%s: power stats degenerate", r.Name)
		}
		if r.SkyAvgWire <= 0 {
			t.Errorf("%s: SkyWalk reference missing", r.Name)
		}
	}
}

func TestFig11QuickShape(t *testing.T) {
	points, err := Fig11(Quick, Table2Options{Pairs: 1, SkyWalkRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 { // 2 instances × 3 switch latencies
		t.Fatalf("points %d want 6", len(points))
	}
	for _, p := range points {
		if p.AvgRatio <= 0 || p.MaxRatio <= 0 {
			t.Errorf("degenerate ratio %+v", p)
		}
		if p.AvgRatio > 3 || p.MaxRatio > 3 {
			t.Errorf("implausible ratio %+v", p)
		}
	}
}

func TestFig6QuickRuns(t *testing.T) {
	points, err := Fig6(Quick, SimOptions{
		Ranks:       128,
		MsgsPerRank: 4,
		Loads:       []float64{0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 topologies × 4 patterns × 1 load.
	if len(points) != 16 {
		t.Fatalf("points %d want 16", len(points))
	}
	for _, p := range points {
		if p.MaxLatency <= 0 || p.Speedup <= 0 {
			t.Errorf("%s/%v: degenerate point %+v", p.Topology, p.Pattern, p)
		}
	}
}

func TestFig8QuickValiantContrast(t *testing.T) {
	// §VI-C.2: Valiant helps the structured bit-shuffle pattern more
	// than the random pattern. The comparison is of MaxLatency ratios,
	// and one seed's ratio is noise-marginal (the ordering flips on
	// some seeds), so the claim is checked on the mean over the fixed
	// seeds 0–11 (Seed 0 is the default BaseSeed). 16 messages per rank
	// for the same reason: at 8 the max statistic is noisier still.
	const seeds = 12
	var shuffle, random float64
	for seed := int64(0); seed < seeds; seed++ {
		points, err := Fig8(Quick, SimOptions{
			Ranks:       128,
			MsgsPerRank: 16,
			Loads:       []float64{0.6},
			Seed:        seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != 4 { // 4 patterns × 1 load
			t.Fatalf("points %d want 4", len(points))
		}
		byPattern := map[string]float64{}
		for _, p := range points {
			byPattern[p.Pattern.String()] = p.Speedup
		}
		t.Logf("seed %2d: bit-shuffle %.3f random %.3f", seed, byPattern["bit-shuffle"], byPattern["random"])
		shuffle += byPattern["bit-shuffle"] / seeds
		random += byPattern["random"] / seeds
	}
	t.Logf("mean: bit-shuffle %.3f random %.3f", shuffle, random)
	if shuffle <= random {
		t.Errorf("valiant should help shuffle (mean %.3f) more than random (mean %.3f)", shuffle, random)
	}
}

func TestSaturationQuick(t *testing.T) {
	rows, err := Saturation(Quick, SimOptions{Ranks: 128, MsgsPerRank: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d want 4", len(rows))
	}
	for _, r := range rows {
		if r.Saturation <= 0 || r.Saturation > 1 {
			t.Errorf("%s: saturation %.3f out of range", r.Topology, r.Saturation)
		}
	}
}

func TestFig3DistanceConcentration(t *testing.T) {
	rows, err := Fig3(0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig3Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	lps, sf := byName["LPS(11,7)"], byName["SF(7)"]
	// §IV-b: "relatively fewer vertices appear at distance equal to the
	// diameter" for LPS; SlimFly's diameter shell holds most pairs.
	if lps.AtDiameter >= sf.AtDiameter {
		t.Errorf("LPS diameter-shell fraction %.3f should be below SF's %.3f",
			lps.AtDiameter, sf.AtDiameter)
	}
	// Sardari tail: a small fraction of pairs beyond (1+ε)log_{k-1}(n).
	if lps.TailBeyond > 0.25 {
		t.Errorf("LPS distance tail %.4f too heavy", lps.TailBeyond)
	}
	// Histogram sums to n(n-1).
	var total int64
	for _, c := range lps.Hist {
		total += c
	}
	if total != int64(168*167) {
		t.Errorf("LPS histogram total %d want %d", total, 168*167)
	}
}

func TestPatternsFitRankSpace(t *testing.T) {
	// Guard: the sim options produce power-of-two rank counts for bit
	// patterns.
	for _, scale := range []Scale{Quick, Full} {
		opts := SimOptions{}.withDefaults(scale)
		if !traffic.PowerOfTwo(opts.Ranks) {
			t.Errorf("%v scale rank count %d not a power of two", scale, opts.Ranks)
		}
	}
}
