package exp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// The interference exhibit co-schedules two jobs on one fabric — a
// small fixed-load "victim" streaming random traffic and a large
// "aggressor" streaming an adversarial pattern at a swept load — and
// reads the victim's tail latency out of the per-tenant statistics.
// The grid crosses topology families with tenant placement policies
// (sequential packing, random fragmentation, partition-clustered), and
// every cell runs under the §VII machine-room wire model, so what it
// measures is exactly the question multi-tenant operators ask of a
// low-diameter fabric: how much does someone else's job — and where
// the scheduler put it — cost my P99?

// InterferenceOptions tunes the multi-tenant interference exhibit.
type InterferenceOptions struct {
	// Families caps how many §VI-B topology families the grid crosses
	// (<= 0 takes two: the SpectralFly and SlimFly instances).
	Families int
	// Placements is the tenant placement-policy axis; nil sweeps all
	// three policies.
	Placements []traffic.PlacementPolicy
	// AggressorLoads is the aggressor's offered-load axis; the victim's
	// load stays pinned at VictimLoad across the sweep.
	AggressorLoads []float64
	VictimLoad     float64
	// VictimRanks / AggressorRanks size the two jobs (the aggressor's
	// transpose pattern needs a power of two).
	VictimRanks    int
	AggressorRanks int
	MsgsPerRank    int
	// LayoutMode selects the machine-room placement driving per-link
	// wire latencies ("qap", "faq", "sequential"); empty keeps the
	// uniform wire model.
	LayoutMode string
	Policy     routing.Policy
	Seed       int64
	Parallel   int
	Workers    int
}

func (o InterferenceOptions) withDefaults(scale Scale) InterferenceOptions {
	if o.Families <= 0 {
		o.Families = 2
	}
	if o.Placements == nil {
		o.Placements = []traffic.PlacementPolicy{
			traffic.PlaceSequential, traffic.PlaceRandom, traffic.PlaceClustered,
		}
	}
	if o.AggressorLoads == nil {
		if scale == Full {
			o.AggressorLoads = []float64{0.1, 0.3, 0.5, 0.7}
		} else {
			o.AggressorLoads = []float64{0.1, 0.4, 0.7}
		}
	}
	if o.VictimLoad == 0 {
		o.VictimLoad = 0.05
	}
	if o.VictimRanks == 0 {
		if scale == Full {
			o.VictimRanks = 512
		} else {
			o.VictimRanks = 64
		}
	}
	if o.AggressorRanks == 0 {
		if scale == Full {
			o.AggressorRanks = 2048
		} else {
			o.AggressorRanks = 256
		}
	}
	if o.MsgsPerRank == 0 {
		if scale == Full {
			o.MsgsPerRank = 20
		} else {
			o.MsgsPerRank = 8
		}
	}
	if o.LayoutMode == "" {
		o.LayoutMode = "qap"
	}
	if o.Seed == 0 {
		o.Seed = BaseSeed
	}
	return o
}

// InterferencePoint is one (topology, placement policy, aggressor
// load) measurement, reduced from the cell's per-tenant statistics.
type InterferencePoint struct {
	Topology      string
	Placement     string
	AggressorLoad float64
	// Victim tenant: delivered fraction, mean and P99 latency.
	VictimDelivered float64
	VictimMeanLat   float64
	VictimP99       int64
	// Aggressor tail latency, for reading congestion off the same row.
	AggressorP99 int64
}

// InterferenceReport is the full exhibit.
type InterferenceReport struct {
	Layout      string // machine-room placement mode ("" = uniform wires)
	VictimLoad  float64
	VictimRanks int
	Aggressor   int // aggressor ranks
	Points      []InterferencePoint
}

// Interference runs the multi-tenant interference exhibit: for every
// topology family and every tenant placement policy, a pinned-load
// victim job and a load-swept aggressor job run co-scheduled on
// disjoint endpoint sets, under layout-derived per-link wire
// latencies. Placement policy is a grid-wide tenant property, so the
// exhibit runs one grid per policy; cell seeds derive from stable
// keys, so the report is bit-identical for every Parallel value.
func Interference(scale Scale, opts InterferenceOptions) (*InterferenceReport, error) {
	opts = opts.withDefaults(scale)
	instances, err := SimInstances(scale)
	if err != nil {
		return nil, err
	}
	if opts.Families < len(instances) {
		instances = instances[:opts.Families]
	}
	report := &InterferenceReport{
		Layout:      opts.LayoutMode,
		VictimLoad:  opts.VictimLoad,
		VictimRanks: opts.VictimRanks,
		Aggressor:   opts.AggressorRanks,
	}
	for _, placement := range opts.Placements {
		placement := placement
		g := &sweep.Grid{
			Instances:   sweepInstances(instances),
			Policies:    []routing.Policy{opts.Policy},
			Patterns:    []traffic.Pattern{traffic.Random}, // label only: tenants drive traffic
			Loads:       opts.AggressorLoads,
			Measure:     sweep.MeasureLoad,
			MsgsPerRank: opts.MsgsPerRank,
			Seed:        opts.Seed,
			Layout:      sweep.Layout{Mode: opts.LayoutMode, Seed: opts.Seed},
			Tenants: traffic.Tenants{
				Specs: []traffic.TenantSpec{
					{Name: "victim", Pattern: traffic.Random, Ranks: opts.VictimRanks, Load: opts.VictimLoad},
					// Load 0 defers to the cell's Loads-axis value — the
					// aggressor is what the sweep sweeps.
					{Name: "aggressor", Pattern: traffic.Transpose, Ranks: opts.AggressorRanks},
				},
				Policy: placement,
				Seed:   opts.Seed,
			},
		}
		err := g.Run(context.Background(), sweep.Options{Parallel: opts.Parallel, Workers: opts.Workers}, func(res sweep.Result) error {
			if res.Err != nil {
				return res.Err
			}
			ten := res.Stats.Tenants
			if len(ten) != 2 {
				return fmt.Errorf("exp: interference cell %s/%s has %d tenant rows, want 2", placement, res.Topology, len(ten))
			}
			victim, agg := ten[0], ten[1]
			delivered := 0.0
			if victim.Offered > 0 {
				delivered = float64(victim.Delivered) / float64(victim.Offered)
			}
			report.Points = append(report.Points, InterferencePoint{
				Topology:        res.Topology,
				Placement:       placement.String(),
				AggressorLoad:   res.Load,
				VictimDelivered: delivered,
				VictimMeanLat:   victim.MeanLatency,
				VictimP99:       victim.P99Latency,
				AggressorP99:    agg.P99Latency,
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return report, nil
}

// FprintInterference renders the exhibit.
func FprintInterference(w io.Writer, r *InterferenceReport) {
	layout := r.Layout
	if layout == "" {
		layout = "uniform"
	}
	fprintf(w, "multi-tenant interference: victim %d ranks @ load %.2f vs aggressor %d ranks (wire model: %s)\n",
		r.VictimRanks, r.VictimLoad, r.Aggressor, layout)
	fprintf(w, "%-22s %-12s %8s %12s %12s %10s %10s\n",
		"Topology", "Placement", "AggLoad", "VicDeliv", "VicMeanLat", "VicP99", "AggP99")
	for _, p := range r.Points {
		fprintf(w, "%-22s %-12s %8.2f %12.4f %12.1f %10d %10d\n",
			p.Topology, p.Placement, p.AggressorLoad, p.VictimDelivered, p.VictimMeanLat, p.VictimP99, p.AggressorP99)
	}
}
