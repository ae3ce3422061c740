package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	spectralfly "repro"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/sweep"
	"repro/internal/topo"
)

// errorRate is what the report prints for a bench's checks.
func errorRate(b *bench) float64 { return float64(b.failed) / float64(b.attempted) }

func TestCorruptCachePayloadRaisesErrorRate(t *testing.T) {
	sw := spectralfly.NewSweep("lps(11,7)").Loads(0.2, 0.3).Ranks(64).MsgsPerRank(2)
	keys, err := sw.CellKeys()
	if err != nil {
		t.Fatal(err)
	}
	cache, err := service.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i, k := range keys {
		p, err := sweep.EncodePayload(sweep.Result{Stats: simnet.Stats{Offered: 10 + i, Delivered: 10 + i}})
		if err != nil {
			t.Fatal(err)
		}
		cache.Put(k, p)
		want = append(want, p)
	}

	b := newBench(1)
	got, err := warmPass(b, 0, sw, cache)
	if err != nil {
		t.Fatal(err)
	}
	checkPayloads(b, "intact cache", got, want)
	if b.failed != 0 {
		t.Fatalf("intact cache: %d failures: %v", b.failed, b.failures)
	}

	// "{}" decodes as a valid, all-zero payload: only the byte
	// comparison catches it.
	entry := filepath.Join(cache.Dir(), keys[1][:2], keys[1])
	if err := os.WriteFile(entry, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = warmPass(b, 0, sw, cache)
	if err != nil {
		t.Fatal(err)
	}
	checkPayloads(b, "corrupt cache", got, want)
	if errorRate(b) <= 0 {
		t.Fatal("a corrupted cache payload left error_rate at 0")
	}
}

func TestWrongTableIValueRaisesErrorRate(t *testing.T) {
	inst, err := topo.TableISizeClasses[0][0].Build()
	if err != nil {
		t.Fatal(err)
	}
	st := inst.G.AllPairsStats()
	k, _ := inst.G.Regularity()
	row := topo.TableIPaperValues[0][0]

	b := newBench(1)
	checkTableI(b, row, inst.G.N(), k, st.Diameter, inst.G.Girth(), st.AvgDist, 0.50)
	if b.failed != 0 {
		t.Fatalf("true Table I row failed: %v", b.failures)
	}
	for _, wrong := range []func(r *topo.TableIExpected){
		func(r *topo.TableIExpected) { r.Diameter++ },
		func(r *topo.TableIExpected) { r.Girth++ },
		func(r *topo.TableIExpected) { r.Dist += 0.02 },
		func(r *topo.TableIExpected) { r.Mu1 -= 0.02 },
	} {
		b := newBench(1)
		bad := row
		wrong(&bad)
		checkTableI(b, bad, inst.G.N(), k, st.Diameter, inst.G.Girth(), st.AvgDist, 0.50)
		if errorRate(b) <= 0 {
			t.Errorf("wrong Table I row %+v left error_rate at 0", bad)
		}
	}
}

func TestTwoDecimals(t *testing.T) {
	for _, c := range []struct {
		x, table float64
		ok       bool
	}{
		{2.3475, 2.35, true},  // rounded
		{0.6585, 0.65, true},  // truncated
		{0.6545, 0.65, true},  // rounded
		{0.6385, 0.65, false}, // neither
		{0.6601, 0.65, false},
	} {
		if got := twoDecimals(c.x, c.table); got != c.ok {
			t.Errorf("twoDecimals(%v, %v) = %v, want %v", c.x, c.table, got, c.ok)
		}
	}
}

func TestBrokenConservationRaisesErrorRate(t *testing.T) {
	b := newBench(1)
	checkConservation(b, "sound", simnet.Stats{Offered: 10, Delivered: 8, Dropped: 2}, false)
	checkConservation(b, "sound intact", simnet.Stats{Offered: 10, Delivered: 10}, true)
	if b.failed != 0 {
		t.Fatalf("sound stats failed: %v", b.failures)
	}
	for _, c := range []struct {
		st     simnet.Stats
		intact bool
	}{
		{simnet.Stats{Offered: 10, Delivered: 9}, false},            // a message vanished
		{simnet.Stats{Offered: 10, Delivered: 9, Dropped: 1}, true}, // an intact network dropped
		{simnet.Stats{}, false},                                     // nothing ran
	} {
		b := newBench(1)
		checkConservation(b, "broken", c.st, c.intact)
		if errorRate(b) <= 0 {
			t.Errorf("broken conservation %+v (intact %v) left error_rate at 0", c.st, c.intact)
		}
	}
}

func TestBetweennessSumCheck(t *testing.T) {
	inst, err := topo.TableISizeClasses[0][3].Build() // DF(12): far from flat
	if err != nil {
		t.Fatal(err)
	}
	g := inst.G
	eb := g.EdgeBetweennessCentrality()
	avg := g.AllPairsStats().AvgDist
	b := newBench(1)
	checkBetweennessSum(b, inst.Name, eb, avg, g.N())
	if b.failed != 0 {
		t.Fatalf("true betweenness failed: %v", b.failures)
	}
	eb[0] += 1e-3
	checkBetweennessSum(b, inst.Name, eb, avg, g.N())
	if errorRate(b) <= 0 {
		t.Fatal("perturbed betweenness left error_rate at 0")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the benchmark's own
// definitions in step: workload names and rationales, and the metric
// lists the result line prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, defined %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: rationale is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	e2e := map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, name := range endToEndMetrics {
		if e2e[name] == "" {
			t.Errorf("end-to-end metric %s missing from BENCHMARK.json", name)
		}
	}
	if len(e2e) != len(endToEndMetrics) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(e2e), len(endToEndMetrics))
	}
	specs := layerSpecs()
	if len(doc.PerLayer) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(doc.PerLayer), len(specs))
	}
	for i, s := range specs {
		m := doc.PerLayer[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, s)
		}
	}
}

// TestColdAndWarmPass drives the fabric path on a small grid: a cold
// pass through the loopback coordinator and two workers, then a warm
// replay that must match it byte for byte. Run it with -race: the
// workers, the coordinator's handler and the tracer share the bench.
func TestColdAndWarmPass(t *testing.T) {
	grid := func() *spectralfly.Sweep {
		return spectralfly.NewSweep("lps(11,7)").Concentration(2).
			Policies(spectralfly.RoutingMinimal, spectralfly.RoutingUGAL).
			Loads(0.3).Faults(spectralfly.FaultLinks(0.1, 2)).MsgsPerRank(2).Seed(5).Parallel(1)
	}
	s := &sweepState{seed: 5, coord: grid(), tmp: t.TempDir()}
	for range sweepWorkers {
		s.workers = append(s.workers, grid())
	}
	var err error
	if s.cells, err = s.coord.Cells(); err != nil {
		t.Fatal(err)
	}
	if s.fp, err = s.coord.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	b := newBench(5)
	b.traced = true
	b.tr.enable(true)
	b.root = b.tr.begin("bench.pass", 0)
	cold, err := s.coldPass(b, b.root)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := warmPass(b, b.root, s.coord, s.cache)
	if err != nil {
		t.Fatal(err)
	}
	b.tr.end(b.root)
	checkPayloads(b, "warm replay", warm, cold)
	if b.failed != 0 || len(cold) != len(s.cells) {
		t.Fatalf("%d of %d checks failed: %v", b.failed, b.attempted, b.failures)
	}
	if self := b.tr.selfTimes("bench.pass"); self["sweep"] <= 0 || self["service"] <= 0 {
		t.Errorf("self times missing the traced layers: %v", self)
	}
}
