package exp

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/spectral"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// ReconfigOptions tunes the live-reconfiguration exhibit.
type ReconfigOptions struct {
	// Routers / Degree size each Jellyfish configuration (n·k even,
	// k < n, as in topo.Jellyfish).
	Routers int
	Degree  int
	// Configs is the number of fabric configurations K the optical
	// layer can switch between.
	Configs       int
	Concentration int
	// Period is the cycle count between rewiring steps; the traffic
	// pattern rotation shares it, so each fabric configuration faces a
	// different workload phase.
	Period int64
	// Steps is the number of rewiring steps after the initial
	// activation (the static leg always takes zero).
	Steps int
	// Policies / Loads / ShiftPatterns are the measurement axes.
	Policies      []routing.Policy
	Loads         []float64
	ShiftPatterns []traffic.Pattern
	Ranks         int
	MsgsPerRank   int
	Seed          int64
	// Parallel sizes the sweep worker pool; Workers is each cell's
	// simulator shard count, which shards the reconfiguration runs
	// themselves. Neither changes results; see sweep.Options.Workers.
	Parallel int
	Workers  int
}

func (o ReconfigOptions) withDefaults(scale Scale) ReconfigOptions {
	if o.Routers == 0 {
		if scale == Full {
			o.Routers = 512
		} else {
			o.Routers = 64
		}
	}
	if o.Degree == 0 {
		if scale == Full {
			o.Degree = 8
		} else {
			o.Degree = 4
		}
	}
	if o.Configs == 0 {
		if scale == Full {
			o.Configs = 4
		} else {
			o.Configs = 3
		}
	}
	if o.Concentration == 0 {
		if scale == Full {
			o.Concentration = 4
		} else {
			o.Concentration = 2
		}
	}
	if o.Period == 0 {
		if scale == Full {
			o.Period = 4000
		} else {
			o.Period = 1500
		}
	}
	if o.Steps == 0 {
		if scale == Full {
			o.Steps = 10
		} else {
			o.Steps = 6
		}
	}
	if o.Policies == nil {
		o.Policies = []routing.Policy{routing.Minimal, routing.UGALL}
	}
	if o.Loads == nil {
		if scale == Full {
			o.Loads = []float64{0.2, 0.5}
		} else {
			o.Loads = []float64{0.3}
		}
	}
	if o.ShiftPatterns == nil {
		o.ShiftPatterns = []traffic.Pattern{traffic.Transpose, traffic.BitShuffle, traffic.BitReverse}
	}
	if o.Ranks == 0 {
		if scale == Full {
			o.Ranks = 2048
		} else {
			o.Ranks = 128
		}
	}
	if o.MsgsPerRank == 0 {
		if scale == Full {
			o.MsgsPerRank = 20
		} else {
			o.MsgsPerRank = 8
		}
	}
	if o.Seed == 0 {
		o.Seed = BaseSeed
	}
	return o
}

// ReconfigConfig summarizes one fabric configuration's structure.
type ReconfigConfig struct {
	Index   int
	Edges   int
	Lambda2 float64
	// Gap is the spectral gap k − λ₂ of the configuration: the static
	// quality each rewiring step trades away and wins back.
	Gap float64
}

// ReconfigPoint is one (fabric leg, policy, load) measurement under
// the shifting workload.
type ReconfigPoint struct {
	// Fabric is the schedule-axis name: "static" pins configuration 0
	// for the whole run, "rewiring" steps through all K configurations
	// every Period cycles.
	Fabric          string
	Policy          string
	Load            float64
	Delivered       float64 // delivered fraction
	MeanLatency     float64
	P99Latency      int64
	MaxLatency      int64
	MeanHops        float64
	SeveredInFlight int
}

// ReconfigReport is the full exhibit: the configuration spectra plus
// the measured static-vs-rewiring grid.
type ReconfigReport struct {
	Topology     string // the union fabric's instance name
	Routers      int
	Degree       int
	Period       int64
	Steps        int
	UnionLambda2 float64
	Configs      []ReconfigConfig
	Points       []ReconfigPoint
}

// Reconfig runs the live-reconfiguration exhibit: an optically
// rewireable Jellyfish fabric whose K sampled configurations share one
// union topology, driven by a workload whose traffic pattern rotates
// on the same period the fabric rewires on. The static leg activates
// configuration 0 and keeps it for the whole run; the rewiring leg
// steps to the next configuration every Period cycles
// (fault.Rewiring), repairing the routing table incrementally at each
// step (routing.Table.Repair / Restore) while traffic is in flight.
// Both legs run through the timed-schedule path of the simulator, so
// their comparison isolates the rewiring policy.
//
// Every schedule is a pure value and every cell seed derives from a
// stable key, so the report is bit-identical across Parallel and
// Workers values.
func Reconfig(scale Scale, opts ReconfigOptions) (*ReconfigReport, error) {
	opts = opts.withDefaults(scale)
	n, k := opts.Routers, opts.Degree

	// Sample the K configurations and assemble the union fabric. Each
	// configuration is connected and k-regular; the union keeps every
	// vertex, so it is connected too.
	configs := make([][][2]int32, opts.Configs)
	report := &ReconfigReport{
		Routers: n,
		Degree:  k,
		Period:  opts.Period,
		Steps:   opts.Steps,
	}
	unionSet := make(map[[2]int32]struct{})
	for i := range configs {
		seed := runner.DeriveSeed(opts.Seed, fmt.Sprintf("reconfig/config/%d", i))
		inst, err := topo.Jellyfish(n, k, seed)
		if err != nil {
			return nil, fmt.Errorf("exp: reconfig configuration %d: %w", i, err)
		}
		edges := inst.G.Edges()
		configs[i] = edges
		for _, e := range edges {
			unionSet[e] = struct{}{}
		}
		sp := spectral.Analyze(inst.G, spectral.Options{Seed: opts.Seed})
		report.Configs = append(report.Configs, ReconfigConfig{
			Index:   i,
			Edges:   len(edges),
			Lambda2: sp.SecondMax,
			Gap:     float64(k) - sp.SecondMax,
		})
	}
	unionEdges := make([][2]int32, 0, len(unionSet))
	for e := range unionSet {
		unionEdges = append(unionEdges, e)
	}
	sort.Slice(unionEdges, func(i, j int) bool {
		if unionEdges[i][0] != unionEdges[j][0] {
			return unionEdges[i][0] < unionEdges[j][0]
		}
		return unionEdges[i][1] < unionEdges[j][1]
	})
	union := graph.FromEdges(n, unionEdges)
	report.Topology = fmt.Sprintf("JellyfishUnion(n=%d,k=%d,K=%d)", n, k, opts.Configs)
	report.UnionLambda2 = spectral.Analyze(union, spectral.Options{Seed: opts.Seed}).SecondMax

	// Both legs are planned rewiring sequences over the same union —
	// the static leg simply never takes a step — so both run the
	// timed-schedule path and differ only in the schedule.
	makeRewiring := func(steps int) func(*graph.Graph, int64) (fault.Schedule, error) {
		return func(*graph.Graph, int64) (fault.Schedule, error) {
			return fault.Rewiring(configs, opts.Period, steps)
		}
	}
	g := &sweep.Grid{
		Instances: []sweep.Instance{{
			Name:          report.Topology,
			Inst:          &topo.Instance{Name: report.Topology, G: union},
			Concentration: opts.Concentration,
		}},
		// The intact union runs every configuration's links at once — a
		// fabric no optical layer can realize — so only the scheduled
		// legs are measured.
		OmitIntact: true,
		Schedules: []sweep.ScheduleAxis{
			{Name: "static", Make: makeRewiring(0)},
			{Name: "rewiring", Make: makeRewiring(opts.Steps)},
		},
		Policies:      opts.Policies,
		Patterns:      []traffic.Pattern{traffic.Random}, // label only: ShiftPatterns drives traffic
		Loads:         opts.Loads,
		Measure:       sweep.MeasureLoad,
		Ranks:         opts.Ranks,
		MsgsPerRank:   opts.MsgsPerRank,
		ShiftPeriod:   opts.Period,
		ShiftPatterns: opts.ShiftPatterns,
		Seed:          opts.Seed,
	}
	err := g.Run(context.Background(), sweep.Options{Parallel: opts.Parallel, Workers: opts.Workers}, func(res sweep.Result) error {
		if res.Err != nil {
			return res.Err
		}
		st := res.Stats
		report.Points = append(report.Points, ReconfigPoint{
			Fabric:          res.Schedule,
			Policy:          res.Policy.String(),
			Load:            res.Load,
			Delivered:       st.DeliveredFraction(),
			MeanLatency:     st.MeanLatency,
			P99Latency:      st.P99Latency,
			MaxLatency:      st.MaxLatency,
			MeanHops:        st.MeanHops,
			SeveredInFlight: st.SeveredInFlight,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return report, nil
}

// FprintReconfig renders the exhibit.
func FprintReconfig(w io.Writer, r *ReconfigReport) {
	fprintf(w, "%s: %d-regular fabric, rewiring every %d cycles for %d steps (traffic shifts on the same period)\n",
		r.Topology, r.Degree, r.Period, r.Steps)
	fprintf(w, "union λ₂ = %.4f\n", r.UnionLambda2)
	for _, c := range r.Configs {
		fprintf(w, "  config %d: %4d links, λ₂ = %.4f, gap = %.4f\n", c.Index, c.Edges, c.Lambda2, c.Gap)
	}
	fprintf(w, "%-10s %-8s %5s %10s %11s %9s %9s %9s %8s\n",
		"Fabric", "Policy", "Load", "Delivered", "MeanLat", "P99Lat", "MaxLat", "MeanHops", "Severed")
	for _, p := range r.Points {
		fprintf(w, "%-10s %-8s %5.2f %10.4f %11.1f %9d %9d %9.3f %8d\n",
			p.Fabric, p.Policy, p.Load, p.Delivered, p.MeanLatency, p.P99Latency, p.MaxLatency, p.MeanHops, p.SeveredInFlight)
	}
}
