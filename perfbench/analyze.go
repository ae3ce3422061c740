package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/partition"
	"repro/internal/runner"
	"repro/internal/spectral"
	"repro/internal/topo"
)

// analyze is the §IV–§VII offline design analysis; no simulator runs.
// Why: it is the only workload that exercises topo, graph, spectral,
// partition and layout, and its costs are uneven (edge betweenness on
// LPS(53,17) and the §VII layouts dominate), so it catches work the
// simulation workloads never touch.
var analyze = workload{
	name: "analyze",
	why: "Table I structure of the 12 class 0-2 instances, edge betweenness, FM bisection, link failures and " +
		"QAP/FAQ layouts: the graph, spectral, partition and layout layers with no simulator",
	stages:  [2]string{"Table I analysis of 12 instances", "betweenness, bisection, failures and layouts"},
	setup:   setupAnalyze,
	heldOut: heldOutAnalyze,
}

const (
	analyzeClasses       = 3 // Table I classes 0-2
	analyzeFailureTrials = 2
)

var analyzeFailureFractions = []float64{0.1, 0.3}

// analyzed is one Table I instance with its expected row.
type analyzed struct {
	class int
	inst  *topo.Instance
	exp   topo.TableIExpected
}

// tableIRow is the analysis output of one instance.
type tableIRow struct {
	Name                        string
	Routers, Radix, Diam, Girth int
	AvgDist, Mu1, Lambda        float64
	Ramanujan                   bool
}

type analyzeState struct {
	seed      int64
	instances []analyzed
	layoutSet [2]*topo.Instance // first Table II pair
	rows      map[string]tableIRow
}

func setupAnalyze(b *bench) (state, error) {
	s := &analyzeState{seed: b.seed}
	var total time.Duration
	build := func(spec topo.ClassSpec) (*topo.Instance, error) {
		var inst *topo.Instance
		var err error
		total += b.timed("topo.build", 0, func() { inst, err = spec.Build() })
		return inst, err
	}
	for c := 0; c < analyzeClasses; c++ {
		for i, spec := range topo.TableISizeClasses[c] {
			inst, err := build(spec)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Name(), err)
			}
			s.instances = append(s.instances, analyzed{class: c, inst: inst, exp: topo.TableIPaperValues[c][i]})
		}
	}
	for i, spec := range topo.TableIISpecs[0] {
		inst, err := build(spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name(), err)
		}
		s.layoutSet[i] = inst
	}
	b.sample("topo.build_s", total.Seconds())
	return s, nil
}

func (s *analyzeState) pass(b *bench, p *passRecord) error {
	t0 := time.Now()
	stage := b.tr.begin("bench.tableI", b.root)
	s.rows = map[string]tableIRow{}
	for _, a := range s.instances {
		g := a.inst.G
		var st graph.PathStats
		var girth int
		var sp spectral.Spectrum
		b.sample("graph.allpairs_s", job(b, "graph.allpairs", stage, func() { st = g.AllPairsStats() }))
		b.sample("graph.girth_s", job(b, "graph.girth", stage, func() { girth = g.Girth() }))
		b.sample("spectral.analyze_s", job(b, "spectral.analyze", stage, func() { sp = spectral.Analyze(g, spectral.Options{}) }))
		k, _ := g.Regularity()
		row := tableIRow{Name: a.inst.Name, Routers: g.N(), Radix: k, Diam: st.Diameter, Girth: girth,
			AvgDist: st.AvgDist, Mu1: sp.Mu1(), Lambda: sp.LambdaG(), Ramanujan: sp.IsRamanujan(1e-8)}
		b.check(st.Connected, "%s: not connected", a.inst.Name)
		checkTableI(b, a.exp, row.Routers, row.Radix, row.Diam, row.Girth, row.AvgDist, row.Mu1)
		if a.exp.Name[:3] == "LPS" {
			b.check(row.Ramanujan, "%s: not Ramanujan (λ %.4f)", a.inst.Name, row.Lambda)
		}
		b.digest("tableI "+row.Name, row)
		s.rows[row.Name] = row
	}
	b.tr.end(stage)
	p.stage[0] = time.Since(t0)

	t0 = time.Now()
	stage = b.tr.begin("bench.design", b.root)
	// Edge betweenness on class 1 plus LPS(53,17).
	for _, a := range s.instances {
		if a.class != 1 && a.inst.Name != "LPS(53,17)" {
			continue
		}
		var eb []float64
		b.sample("graph.edge_betweenness_s", job(b, "graph.edge_betweenness", stage, func() { eb = a.inst.G.EdgeBetweennessCentrality() }))
		checkBetweennessSum(b, a.inst.Name, eb, s.rows[a.inst.Name].AvgDist, a.inst.G.N())
	}
	// FM bisection on classes 0-1, bracketed below by the Fiedler bound.
	for _, a := range s.instances {
		if a.class > 1 {
			continue
		}
		g := a.inst.G
		var res partition.Result
		b.sample("partition.bisect_s", job(b, "partition.bisect", stage, func() {
			res = partition.Bisect(g, partition.Options{Seed: s.seed})
		}))
		checkBisection(b, a.inst.Name, g, res, s.rows[a.inst.Name])
		b.digest("bisect "+a.inst.Name, res.Cut)
	}
	// Fig-5 link failures at 10% and 30% on class 1.
	for _, a := range s.instances {
		if a.class != 1 {
			continue
		}
		g := a.inst.G
		for _, frac := range analyzeFailureFractions {
			for trial := 0; trial < analyzeFailureTrials; trial++ {
				rng := rand.New(rand.NewSource(runner.DeriveSeed(s.seed, fmt.Sprintf("fig5/%s/%v/%d", a.inst.Name, frac, trial))))
				var failed *graph.Graph
				var st graph.PathStats
				b.sample("graph.failures_s", job(b, "graph.failures", stage, func() {
					failed = g.DeleteRandomEdges(frac, rng)
					st = failed.AllPairsStats()
				}))
				what := fmt.Sprintf("%s at %.0f%% link failures, trial %d", a.inst.Name, frac*100, trial)
				b.check(failed.M() == g.M()-int(frac*float64(g.M())), "%s: %d links left of %d", what, failed.M(), g.M())
				if st.Connected {
					// Deleting links never shortens a shortest path.
					intact := s.rows[a.inst.Name]
					b.check(st.Diameter >= intact.Diam && st.AvgDist >= intact.AvgDist,
						"%s: diameter %d / avg %.4f below intact %d / %.4f", what, st.Diameter, st.AvgDist, intact.Diam, intact.AvgDist)
				}
				b.digest("failures "+what, []any{st.Connected, st.Diameter, st.AvgDist})
			}
		}
	}
	// §VII layouts of the first Table II pair.
	for _, inst := range s.layoutSet {
		g := inst.G
		var qap, faq *layout.Placement
		b.sample("layout.qap_s", job(b, "layout.qap", stage, func() { qap = layout.Optimize(g, layout.Options{Seed: s.seed}) }))
		b.sample("layout.faq_s", job(b, "layout.faq", stage, func() { faq = layout.OptimizeFAQ(g, s.seed, 0) }))
		checkPlacement(b, inst.Name+" QAP layout", qap, g.N())
		checkPlacement(b, inst.Name+" FAQ layout", faq, g.N())
		if qap != nil && faq != nil {
			b.digest("layout "+inst.Name, []layout.WireStats{layout.Stats(g, qap, 0), layout.Stats(g, faq, 0)})
		}
	}
	b.tr.end(stage)
	p.stage[1] = time.Since(t0)
	return nil
}

// job runs one analysis inside a span after collecting the heap: the
// analyses are short-lived allocations on a small heap, so without the
// collection the process's peak RSS would depend on where the
// collector happened to run rather than on what the analyses need.
func job(b *bench, name string, parent int, f func()) float64 {
	runtime.GC()
	return b.timed(name, parent, f).Seconds()
}

// checkBisection checks a bisection's reported cut against its sides,
// its balance, and the Fiedler lower bound µ1·k·n/4.
func checkBisection(b *bench, name string, g *graph.Graph, res partition.Result, row tableIRow) {
	b.check(len(res.Side) == g.N() && g.CutSize(res.Side) == res.Cut, "%s: reported cut %d does not match its sides", name, res.Cut)
	ones := 0
	for _, x := range res.Side {
		ones += int(x)
	}
	b.check(abs(2*ones-g.N()) <= g.N()/25+2, "%s: unbalanced bisection %d / %d", name, ones, g.N()-ones)
	lower := spectral.FiedlerBisectionLowerBound(g.N(), row.Radix, row.Mu1)
	b.check(float64(res.Cut) >= lower-1e-6, "%s: cut %d below the Fiedler lower bound %.2f", name, res.Cut, lower)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (s *analyzeState) finish(b *bench) error {
	b.note("analyze: checked against the paper's Table I (classes 0-2), the only reference data in this repository")
	return nil
}

func (s *analyzeState) close() {}

// heldOutAnalyze repeats the seeded analyses (bisection, failures,
// layout) on class-0 instances at another seed.
func heldOutAnalyze(b *bench, seed int64) error {
	inst, err := topo.TableISizeClasses[0][0].Build()
	if err != nil {
		return err
	}
	g := inst.G
	st := g.AllPairsStats()
	sp := spectral.Analyze(g, spectral.Options{Seed: seed})
	k, _ := g.Regularity()
	row := tableIRow{Radix: k, Mu1: sp.Mu1(), AvgDist: st.AvgDist, Diam: st.Diameter}
	checkBisection(b, "held-out "+inst.Name, g, partition.Bisect(g, partition.Options{Seed: seed}), row)
	failed := g.DeleteRandomEdges(0.1, rand.New(rand.NewSource(seed)))
	if fs := failed.AllPairsStats(); fs.Connected {
		b.check(fs.AvgDist >= st.AvgDist, "held-out %s failures: avg distance %.4f below intact %.4f", inst.Name, fs.AvgDist, st.AvgDist)
	}
	checkPlacement(b, "held-out "+inst.Name+" QAP layout", layout.Optimize(g, layout.Options{Seed: seed}), g.N())
	return nil
}
