package exp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// ScalePoint is one row of the large-n sweep: a Table II scale-ladder
// instance driven through a saturation search and one
// damaged-topology load point, with the routing-oracle footprint that
// made the run feasible reported alongside the performance numbers.
type ScalePoint struct {
	Topology  string
	Routers   int
	Endpoints int
	// Store names the routing-table backend ("packed", "lazy", "dense").
	Store string
	// Saturation is the measured knee under uniform traffic.
	Saturation float64
	// Degraded* report the link-failure resilience point: delivered
	// fraction and tail latency at DegradedFraction random link cuts.
	DegradedDelivered float64
	DegradedP99       float64
	// PeakTableBytes is the largest distance-store footprint the
	// sweep's memo held at any cell boundary of this instance's runs.
	// The maximum lands in the repair window, where the intact and the
	// freshly repaired table are briefly memoized together (the intact
	// one is released before the degraded point's cells run). This is
	// the number the 1.5 GB budget of the 40K class is checked against.
	PeakTableBytes int64
	// PeakSimBytes is the largest simulator working set any cell of
	// this instance reported (Stats.MemoryBytes: event scheduler +
	// packet arena + latency digest + port state). With the streaming
	// run loop it tracks the in-flight packet population, not the total
	// offered traffic of the run.
	PeakSimBytes int64
}

// ScaleOptions tunes the large-n sweep.
type ScaleOptions struct {
	// Store selects the routing-oracle backend. The zero value is
	// routing.StoreDense (matching routing.TableOptions); pass
	// StorePacked — the CLI's default, and the point of the exercise —
	// for the big rungs, where dense tables need tens of GB.
	Store routing.Store
	// MaxResident bounds the lazy working set (rows) when Store is
	// StoreLazy; 0 selects the routing package default.
	MaxResident int
	// Rungs selects scale-ladder rungs by index (default: all at Full
	// scale; Quick scale ignores this and runs small stand-ins).
	Rungs []int
	// Fraction is the link-failure fraction of the degraded point; 0
	// selects the default 0.01 and negative values are rejected (an
	// intact baseline is the resilience exhibit's job, not this one's).
	Fraction float64
	// Load is the offered load of the degraded point; 0 selects the
	// default 0.3.
	Load float64
	// MsgsPerEP shapes the workloads (default: 4 quick, 10 full).
	MsgsPerEP int
	Seed      int64
	// Parallel sizes the worker pool (0 = GOMAXPROCS, 1 = serial);
	// results are bit-identical for every value.
	Parallel int
	// Workers is each cell's simulator shard count, as in
	// sweep.Options.Workers. With Workers >= 2 and Parallel unset, the
	// pool is sized GOMAXPROCS / Workers.
	Workers int
}

func (o ScaleOptions) withDefaults(scale Scale) ScaleOptions {
	if o.Fraction == 0 {
		o.Fraction = 0.01
	}
	if o.Load == 0 {
		o.Load = 0.3
	}
	if o.MsgsPerEP == 0 {
		if scale == Full {
			o.MsgsPerEP = 10
		} else {
			o.MsgsPerEP = 4
		}
	}
	if o.Seed == 0 {
		o.Seed = BaseSeed
	}
	return o
}

// scaleInstances returns the instance set of the sweep: at Full scale
// the selected rungs of topo.TableIIScaleSpecs (up to ~40K routers);
// at Quick scale small stand-ins with the identical code path, so CI
// exercises the driver in seconds.
func scaleInstances(scale Scale, opts ScaleOptions) ([]*SimInstance, error) {
	var specs []topo.ClassSpec
	if scale == Full {
		rungs := opts.Rungs
		if rungs == nil {
			for i := range topo.TableIIScaleSpecs {
				rungs = append(rungs, i)
			}
		}
		for _, r := range rungs {
			if r < 0 || r >= len(topo.TableIIScaleSpecs) {
				return nil, fmt.Errorf("exp: scale rung %d out of range [0,%d)", r, len(topo.TableIIScaleSpecs))
			}
			specs = append(specs, topo.TableIIScaleSpecs[r][0], topo.TableIIScaleSpecs[r][1])
		}
	} else {
		specs = []topo.ClassSpec{
			{Kind: "LPS", P: 11, Q: 7},
			{Kind: "SF", Q: 9},
		}
	}
	out := make([]*SimInstance, 0, len(specs))
	for _, s := range specs {
		inst, err := s.Build()
		if err != nil {
			return nil, err
		}
		// Concentration 1: the ladder scales the router count, and the
		// routing table — not the NIC count — is what the sweep stresses.
		out = append(out, &SimInstance{Name: inst.Name, Inst: inst, Concentration: 1})
	}
	return out, nil
}

// ScaleSweep runs the large-n end of Table II: for every selected
// scale-ladder instance it measures the saturation knee and one
// degraded (random link failure) load point, using the compact routing
// oracle selected by opts.Store so the biggest rungs fit in memory at
// all — a 40K-router dense table alone is ~6.3 GB, and the PR 2
// resilience design holds one repaired table per fault plan on top.
// Instances run strictly one at a time and are Released before the
// next begins, so PeakTableBytes reflects the per-instance working
// set, which the packed oracle keeps under the 1.5 GB class budget.
//
// Like every simulation driver, cell seeds derive from stable keys:
// results are bit-identical across Parallel settings and across
// storage backends (the oracles report identical distances).
func ScaleSweep(scale Scale, opts ScaleOptions) ([]ScalePoint, error) {
	if opts.Fraction < 0 {
		return nil, fmt.Errorf("exp: scale fraction %v must be positive (0 selects the default)", opts.Fraction)
	}
	opts = opts.withDefaults(scale)
	instances, err := scaleInstances(scale, opts)
	if err != nil {
		return nil, err
	}
	points := make([]ScalePoint, 0, len(instances))
	for _, si := range instances {
		pt := ScalePoint{
			Topology:  si.Name,
			Routers:   si.Inst.G.N(),
			Endpoints: si.Endpoints(),
			Store:     opts.Store.String(),
		}
		runOpts := sweep.Options{
			Parallel: opts.Parallel,
			Workers:  opts.Workers,
			Tables:   routing.TableOptions{Store: opts.Store, MaxResident: opts.MaxResident},
			// A fresh memo per instance keeps the peak-bytes sample scoped
			// to one rung at a time. Both grids of the rung share it, so
			// the degraded grid repairs the saturation grid's memoized
			// table instead of rebuilding.
			Memo: &sweep.Memo{},
			// Track the peak across every batch and repair boundary; the
			// maximum lands in the repair window, where the intact and
			// the freshly repaired table are briefly memoized together
			// (1% cuts on an expander leave few shards shareable, so
			// that is close to 2× one table) — the honest per-instance
			// peak, and the number the 1.5 GB budget of the 40K class is
			// checked against.
			OnTableBytes: func(b int64) {
				if b > pt.PeakTableBytes {
					pt.PeakTableBytes = b
				}
			},
			OnSimBytes: func(b int64) {
				if b > pt.PeakSimBytes {
					pt.PeakSimBytes = b
				}
			},
		}
		inst := sweep.Instance{Name: si.Name, Inst: si.Inst, Concentration: si.Concentration}

		// Phase 1: the saturation knee on the intact instance.
		sat := &sweep.Grid{
			Instances:     []sweep.Instance{inst},
			Measure:       sweep.MeasureSaturation,
			MsgsPerRank:   opts.MsgsPerEP,
			LatencyFactor: 3,
			Tol:           0.02,
			Seed:          opts.Seed,
		}
		res, err := sat.Collect(context.Background(), runOpts)
		if err != nil {
			return nil, err
		}
		if res[0].Err != nil {
			return nil, res[0].Err
		}
		pt.Saturation = res[0].Saturation

		// Phase 2: the degraded point — the core samples the link-failure
		// plan, repairs the intact table incrementally, releases the
		// intact table before the damaged cells run (only one table stays
		// memoized while they execute — at the 40K rung each one is
		// ~790 MB packed, and holding every plan's table at once was the
		// dense design's second multiplier), and releases the damaged
		// table afterwards.
		deg := &sweep.Grid{
			Instances:   []sweep.Instance{inst},
			OmitIntact:  true,
			Faults:      []sweep.FaultAxis{{Kind: fault.Links, Fraction: opts.Fraction}},
			Policies:    []routing.Policy{routing.Minimal},
			Patterns:    []traffic.Pattern{traffic.Random},
			Loads:       []float64{opts.Load},
			Measure:     sweep.MeasureLoad,
			Ranks:       si.Endpoints(),
			MsgsPerRank: opts.MsgsPerEP,
			Seed:        opts.Seed,
		}
		res, err = deg.Collect(context.Background(), runOpts)
		if err != nil {
			return nil, err
		}
		if res[0].Err != nil {
			return nil, res[0].Err
		}
		pt.DegradedDelivered = res[0].Stats.DeliveredFraction()
		pt.DegradedP99 = float64(res[0].Stats.P99Latency)
		points = append(points, pt)
	}
	return points, nil
}

// FprintScale renders the scale sweep.
func FprintScale(w io.Writer, points []ScalePoint) {
	fprintf(w, "%-14s %8s %10s %7s %11s %10s %10s %14s %12s\n",
		"Topology", "Routers", "Endpoints", "Store", "Saturation", "DegDeliv", "DegP99", "PeakTableMB", "PeakSimMB")
	for _, p := range points {
		fprintf(w, "%-14s %8d %10d %7s %11.2f %10.4f %10.1f %14.1f %12.1f\n",
			p.Topology, p.Routers, p.Endpoints, p.Store, p.Saturation,
			p.DegradedDelivered, p.DegradedP99, float64(p.PeakTableBytes)/(1<<20),
			float64(p.PeakSimBytes)/(1<<20))
	}
}
