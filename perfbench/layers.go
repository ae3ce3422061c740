package main

import "fmt"

// agg says how a per-layer metric folds its samples.
type agg int

const (
	aggMedian agg = iota
	aggSum        // a count or a total over the traced work
	aggP90
	aggMax
)

// layerSpec is one per-layer metric of BENCHMARK.json. A metric whose
// layer a workload never calls reads 0 there.
type layerSpec struct {
	name, unit, better string
	agg                agg
}

// traceModules are the modules self times are reported for: the
// layers the benchmark calls into, plus its own glue ("bench").
var traceModules = []string{
	"bench", "repro", "topo", "routing", "simnet", "traffic", "fault",
	"sweep", "service", "graph", "spectral", "partition", "layout",
}

// Stream configurations of sim-load, in the order the per-layer
// ns/hop metrics are listed.
var (
	streamEngines  = []string{"serial", "sharded2"}
	streamPolicies = []string{"minimal", "ugal"}
	streamStores   = []string{"dense", "packed"}
	motifTags      = []string{"halo3d26", "fft", "sweep3d"}
)

// layerSpecs lists every per-layer metric, in BENCHMARK.json order.
func layerSpecs() []layerSpec {
	s := []layerSpec{
		{"topo.build_s", "s", "lower", aggSum},
		{"routing.build_s.dense", "s", "lower", aggMedian},
		{"routing.build_s.packed", "s", "lower", aggMedian},
		{"routing.table_mb.dense", "MB", "lower", aggMedian},
		{"routing.table_mb.packed", "MB", "lower", aggMedian},
	}
	for _, e := range streamEngines {
		for _, p := range streamPolicies {
			for _, st := range streamStores {
				s = append(s, layerSpec{fmt.Sprintf("simnet.ns_per_hop.%s.%s.%s", e, p, st), "ns", "lower", aggMedian})
			}
		}
	}
	s = append(s,
		layerSpec{"simnet.run_s", "s", "lower", aggMedian},
		layerSpec{"simnet.first_run_s", "s", "lower", aggMedian},
		layerSpec{"simnet.sim_mb", "MB", "lower", aggMax},
		layerSpec{"simnet.hops", "count", "higher", aggSum},
		layerSpec{"simnet.delivered", "count", "higher", aggSum},
		layerSpec{"simnet.valiant_taken", "count", "lower", aggSum},
	)
	for _, m := range motifTags {
		s = append(s, layerSpec{"simnet.batch_ns_per_hop." + m, "ns", "lower", aggMedian})
	}
	s = append(s,
		layerSpec{"traffic.mapping_s", "s", "lower", aggMedian},
		layerSpec{"traffic.rounds_s", "s", "lower", aggMedian},
		layerSpec{"routing.repair_s", "s", "lower", aggMedian},
		layerSpec{"routing.restore_s", "s", "lower", aggMedian},
		layerSpec{"fault.plan_s", "s", "lower", aggMedian},
		layerSpec{"sweep.exec_s", "s", "lower", aggSum},
		layerSpec{"sweep.cell_s.p50", "s", "lower", aggMedian},
		layerSpec{"sweep.cell_s.p90", "s", "lower", aggP90},
		layerSpec{"sweep.keys_s", "s", "lower", aggMedian},
		layerSpec{"sweep.cells_failed", "count", "lower", aggSum},
		layerSpec{"service.claim_rtt_s.p50", "s", "lower", aggMedian},
		layerSpec{"service.result_rtt_s.p50", "s", "lower", aggMedian},
		layerSpec{"service.requests", "count", "lower", aggSum},
		layerSpec{"service.empty_claims", "count", "lower", aggSum},
		layerSpec{"service.cache_put_s", "s", "lower", aggMedian},
		layerSpec{"service.cache_get_s", "s", "lower", aggMedian},
		layerSpec{"service.cache_hits", "count", "higher", aggSum},
		layerSpec{"service.cache_misses", "count", "lower", aggSum},
		layerSpec{"service.cache_puts", "count", "lower", aggSum},
		layerSpec{"graph.allpairs_s", "s", "lower", aggSum},
		layerSpec{"graph.girth_s", "s", "lower", aggSum},
		layerSpec{"graph.edge_betweenness_s", "s", "lower", aggSum},
		layerSpec{"graph.failures_s", "s", "lower", aggSum},
		layerSpec{"spectral.analyze_s", "s", "lower", aggSum},
		layerSpec{"partition.bisect_s", "s", "lower", aggSum},
		layerSpec{"layout.qap_s", "s", "lower", aggSum},
		layerSpec{"layout.faq_s", "s", "lower", aggSum},
	)
	for _, m := range traceModules {
		s = append(s, layerSpec{"self_s." + m, "s", "lower", aggSum})
	}
	return append(s, layerSpec{"trace.overhead_s", "s", "lower", aggSum})
}

// layerMetrics folds the traced samples into every per-layer metric.
// Sums over traced passes are reported per pass; set-up and probe
// samples come from one traced set-up and one probe.
func (b *bench) layerMetrics(overhead float64) map[string]metric {
	self := b.tr.selfTimes("bench.pass")
	perPass := float64(max(b.passes, 1))
	out := map[string]metric{}
	for _, s := range layerSpecs() {
		xs := b.samples[s.name]
		var v float64
		switch s.agg {
		case aggMedian:
			v = median(xs)
		case aggP90:
			v = quantile(xs, 0.9)
		case aggMax:
			for _, x := range xs {
				v = max(v, x)
			}
		case aggSum:
			for _, x := range xs {
				v += x
			}
			if b.passSum[s.name] {
				v /= perPass
			}
		}
		out[s.name] = metric{v, s.unit}
	}
	for _, m := range traceModules {
		out["self_s."+m] = metric{self[m] / perPass, "s"}
	}
	out["trace.overhead_s"] = metric{overhead, "s"}
	return out
}
