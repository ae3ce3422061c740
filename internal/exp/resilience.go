package exp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// ResiliencePoint is one (topology, fault model, failure fraction,
// policy, load) cell of the performance-under-failure grid, averaged
// over the plan trials. It is the dynamic companion to Figure 5: where
// Fig5Point reports static structure after damage, this reports what
// delivered traffic actually experiences.
type ResiliencePoint struct {
	Topology string
	Fault    string // fault.Kind name, or "none" for the intact baseline
	Fraction float64
	Policy   string
	Load     float64
	Trials   int
	// Delivered is the mean delivered fraction (Stats.DeliveredFraction);
	// below 1 the network is partitioned or routers are dead.
	Delivered float64
	// Latency/hop statistics are averaged over trials, counting only
	// delivered messages within each trial.
	MeanLatency float64
	P99Latency  float64
	MaxLatency  float64
	MeanHops    float64
}

// ResilienceOptions tunes the performance-under-failure sweep.
type ResilienceOptions struct {
	// Kinds are the damage models to sweep; defaults to all three
	// (links, routers, regions).
	Kinds []fault.Kind
	// Fractions is the nonzero failure-fraction axis; an intact
	// baseline point (fault "none", fraction 0) is always included.
	Fractions []float64
	// Policies is the routing-policy axis (default minimal + UGAL-L).
	Policies []routing.Policy
	// Loads is the offered-load axis.
	Loads []float64
	// Trials is the number of independent failure plans per
	// (kind, fraction) cell.
	Trials int
	// RegionSize is the chassis size for region plans (default 8).
	RegionSize int
	// Ranks / MsgsPerRank shape the random workload, as in SimOptions.
	Ranks       int
	MsgsPerRank int
	Seed        int64
	// Parallel sizes the worker pool (0 = GOMAXPROCS, 1 = serial);
	// results are bit-identical for every value.
	Parallel int
	// Workers is each cell's simulator shard count, as in
	// sweep.Options.Workers.
	Workers int
}

func (o ResilienceOptions) withDefaults(scale Scale) ResilienceOptions {
	if o.Kinds == nil {
		o.Kinds = []fault.Kind{fault.Links, fault.Routers, fault.Regions}
	}
	if o.Fractions == nil {
		if scale == Full {
			o.Fractions = []float64{0.05, 0.1, 0.2, 0.3}
		} else {
			o.Fractions = []float64{0.05, 0.15}
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
	if o.Trials == 0 {
		if scale == Full {
			o.Trials = 5
		} else {
			o.Trials = 2
		}
	}
	if o.Ranks == 0 {
		if scale == Full {
			o.Ranks = 4096
		} else {
			o.Ranks = 256
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

// Resilience runs the performance-under-failure sweep over the §VI-B
// instance set, as a preset over the declarative sweep core: the fault
// axis (kind × fraction, sampled Trials times) is declared on the
// grid, and the core samples each deterministic fault.Plan, repairs
// the memoized routing table incrementally (routing.Table.Repair —
// never a full rebuild), fans the (policy × load) cells of each
// damaged instance through the parallel engine, and releases the
// damaged tables group by group so peak memory holds one fault group,
// not the whole sweep (at -full scale the difference is gigabytes).
// Unreachable pairs drop and are reported via the delivered fraction;
// everything else is measured on delivered traffic only.
//
// Every simulation seed derives from the cell's stable key and every
// plan seed from the plan's stable key, so the output is bit-identical
// between Parallel=1 and Parallel=N.
func Resilience(scale Scale, opts ResilienceOptions) ([]ResiliencePoint, error) {
	opts = opts.withDefaults(scale)
	instances, err := SimInstances(scale)
	if err != nil {
		return nil, err
	}

	var axes []sweep.FaultAxis
	for _, kind := range opts.Kinds {
		for _, frac := range opts.Fractions {
			if frac <= 0 {
				continue // the baseline already covers fraction 0
			}
			axes = append(axes, sweep.FaultAxis{
				Kind:       kind,
				Fraction:   frac,
				RegionSize: opts.RegionSize,
				Trials:     opts.Trials,
			})
		}
	}
	g := &sweep.Grid{
		Instances:   sweepInstances(instances),
		Faults:      axes,
		Policies:    opts.Policies,
		Patterns:    []traffic.Pattern{traffic.Random},
		Loads:       opts.Loads,
		Measure:     sweep.MeasureLoad,
		Ranks:       opts.Ranks,
		MsgsPerRank: opts.MsgsPerRank,
		Seed:        opts.Seed,
	}

	// Reduction groups: trials of the same (fault, fraction) cell share
	// a group, averaged at the end. Group order is the exhibit's
	// historical row order — per instance, the intact baseline first,
	// then the (kind × fraction) grid — independent of the stream order
	// (the core delivers all intact cells first). Within a group the
	// stream preserves trial order, so the float summation order (and
	// thus the output) is independent of the worker count.
	type groupKey struct {
		topo, fault string
		fraction    float64
		policy      string
		load        float64
	}
	var (
		points  []ResiliencePoint
		groupOf = make(map[groupKey]int)
	)
	addGroups := func(topology, fault string, fraction float64) {
		for _, pol := range opts.Policies {
			for _, load := range opts.Loads {
				gk := groupKey{topology, fault, fraction, pol.String(), load}
				if _, ok := groupOf[gk]; !ok {
					groupOf[gk] = len(points)
					points = append(points, ResiliencePoint{
						Topology: gk.topo,
						Fault:    gk.fault,
						Fraction: gk.fraction,
						Policy:   gk.policy,
						Load:     gk.load,
					})
				}
			}
		}
	}
	for _, si := range instances {
		addGroups(si.Name, "none", 0)
		for _, f := range axes {
			addGroups(si.Name, f.Kind.String(), f.Fraction)
		}
	}

	err = g.Run(context.Background(), sweep.Options{Parallel: opts.Parallel, Workers: opts.Workers}, func(res sweep.Result) error {
		if res.Err != nil {
			return res.Err
		}
		gi, ok := groupOf[groupKey{res.Topology, res.Fault, res.Fraction, res.Policy.String(), res.Load}]
		if !ok {
			return fmt.Errorf("exp: resilience cell %q has no reduction group", res.Fault)
		}
		pt := &points[gi]
		st := res.Stats
		pt.Trials++
		pt.Delivered += st.DeliveredFraction()
		pt.MeanLatency += st.MeanLatency
		pt.P99Latency += float64(st.P99Latency)
		pt.MaxLatency += float64(st.MaxLatency)
		pt.MeanHops += st.MeanHops
		return nil
	})
	if err != nil {
		return nil, err
	}

	for i := range points {
		if n := float64(points[i].Trials); n > 0 {
			points[i].Delivered /= n
			points[i].MeanLatency /= n
			points[i].P99Latency /= n
			points[i].MaxLatency /= n
			points[i].MeanHops /= n
		}
	}
	return points, nil
}

// FprintResilience renders the resilience grid.
func FprintResilience(w io.Writer, points []ResiliencePoint) {
	fprintf(w, "%-22s %-8s %6s %-8s %5s %7s %10s %11s %11s %9s\n",
		"Topology", "Fault", "Frac", "Policy", "Load", "Trials",
		"Delivered", "MeanLat", "P99Lat", "MeanHops")
	for _, p := range points {
		fprintf(w, "%-22s %-8s %6.2f %-8s %5.2f %7d %10.4f %11.1f %11.1f %9.3f\n",
			p.Topology, p.Fault, p.Fraction, p.Policy, p.Load, p.Trials,
			p.Delivered, p.MeanLatency, p.P99Latency, p.MeanHops)
	}
}
