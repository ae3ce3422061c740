package exp

import (
	"context"
	"io"

	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// SimInstance is a topology prepared for simulation with its endpoint
// concentration (§VI-B).
type SimInstance struct {
	Name          string
	Inst          *topo.Instance
	Concentration int
	table         *routing.Table
}

// Table lazily builds (and caches) the routing table. Sweeps memoize
// tables per instance on their own; this accessor serves direct
// (non-sweep) callers.
func (s *SimInstance) Table() *routing.Table {
	if s.table == nil {
		s.table = routing.NewTable(s.Inst.G)
	}
	return s.table
}

// Endpoints returns the endpoint count.
func (s *SimInstance) Endpoints() int { return s.Inst.G.N() * s.Concentration }

// SimInstances builds the §VI-B topology set. Full scale matches the
// paper's "~8.7K network endpoints": LPS(23,13)+c8 (8736 EP), SF(27)+c6
// (8748 EP), BF(9,9)+c6 (8748 EP), DF(a=16,h=8,g=69)+p8 (8832 EP).
// (§VI-B's text says 8 endpoints per SlimFly router, but 1458·8 ≈ 11.7K
// contradicts the stated ~8.7K total; concentration 6 reconciles the
// two and keeps the endpoint counts comparable.) Quick scale uses the
// same families at class-1 size.
func SimInstances(scale Scale) ([]*SimInstance, error) {
	type specT struct {
		build func() (*topo.Instance, error)
		conc  int
	}
	var specs []specT
	if scale == Full {
		specs = []specT{
			{func() (*topo.Instance, error) { return topo.LPS(23, 13) }, 8},
			{func() (*topo.Instance, error) { return topo.SlimFly(27) }, 6},
			{func() (*topo.Instance, error) { return topo.BundleFly(9, 9) }, 6},
			{func() (*topo.Instance, error) { return topo.DragonFly(16, 8, 69, topo.Circulant) }, 8},
		}
	} else {
		specs = []specT{
			{func() (*topo.Instance, error) { return topo.LPS(11, 7) }, 4},
			{func() (*topo.Instance, error) { return topo.SlimFly(9) }, 4},
			{func() (*topo.Instance, error) { return topo.BundleFly(13, 3) }, 3},
			{func() (*topo.Instance, error) { return topo.DragonFly(8, 4, 33, topo.Circulant) }, 4},
		}
	}
	out := make([]*SimInstance, 0, len(specs))
	for _, s := range specs {
		inst, err := s.build()
		if err != nil {
			return nil, err
		}
		out = append(out, &SimInstance{Name: inst.Name, Inst: inst, Concentration: s.conc})
	}
	return out, nil
}

// SimOptions tunes the micro-benchmark sweeps.
type SimOptions struct {
	// Ranks is the MPI job size (power of two; §VI-C uses 8192).
	Ranks int
	// MsgsPerRank is the number of messages each rank generates in the
	// open-loop sweeps.
	MsgsPerRank int
	// Loads is the offered-load axis (§VI-C uses .1 .2 .3 .5 .6 .7).
	Loads []float64
	Seed  int64
	// Parallel is the worker-pool size for the sweep engine: 0 sizes it
	// by GOMAXPROCS, 1 runs one cell at a time. Results are identical
	// for every value (per-job seeds are derived from stable job keys
	// and results are reassembled in submission order).
	Parallel int
	// Workers is each cell's simulator shard count (0/1 = one shard);
	// results are identical for every value. See sweep.Options.Workers
	// for the pool-splitting contract.
	Workers int
}

func (o SimOptions) withDefaults(scale Scale) SimOptions {
	if o.Ranks == 0 {
		if scale == Full {
			o.Ranks = 8192
		} else {
			o.Ranks = 512
		}
	}
	if o.MsgsPerRank == 0 {
		if scale == Full {
			o.MsgsPerRank = 30
		} else {
			o.MsgsPerRank = 25
		}
	}
	if o.Loads == nil {
		o.Loads = []float64{0.1, 0.2, 0.3, 0.5, 0.6, 0.7}
	}
	if o.Seed == 0 {
		o.Seed = BaseSeed
	}
	return o
}

// LoadPoint is one simulated (topology, pattern, load) measurement.
type LoadPoint struct {
	Topology   string
	Pattern    traffic.Pattern
	Load       float64
	MaxLatency int64
	MeanLat    float64
	Speedup    float64 // vs the DragonFly baseline at the same point
}

// sweepInstances adapts the §VI-B instance set to the sweep core's
// topology axis.
func sweepInstances(sis []*SimInstance) []sweep.Instance {
	out := make([]sweep.Instance, len(sis))
	for i, si := range sis {
		out[i] = sweep.Instance{Name: si.Name, Inst: si.Inst, Concentration: si.Concentration}
	}
	return out
}

// Fig6 reproduces the UGAL-L congestion sweep: for each synthetic
// pattern and offered load, every topology's max message time relative
// to DragonFly-UGAL (speedup > 1 favors the topology).
func Fig6(scale Scale, opts SimOptions) ([]LoadPoint, error) {
	return loadSweep(scale, opts, routing.UGALL, traffic.SyntheticPatterns)
}

// Fig7 reproduces the minimal-routing sweep with the random pattern,
// reporting speedup relative to DragonFly-Min.
func Fig7(scale Scale, opts SimOptions) ([]LoadPoint, error) {
	return loadSweep(scale, opts, routing.Minimal, []traffic.Pattern{traffic.Random})
}

// loadSweep declares the (topology × pattern × load) grid on the sweep
// core and reduces it against the DragonFly baseline.
func loadSweep(scale Scale, opts SimOptions, pol routing.Policy, pats []traffic.Pattern) ([]LoadPoint, error) {
	opts = opts.withDefaults(scale)
	instances, err := SimInstances(scale)
	if err != nil {
		return nil, err
	}
	g := &sweep.Grid{
		Instances:   sweepInstances(instances),
		Policies:    []routing.Policy{pol},
		Patterns:    pats,
		Loads:       opts.Loads,
		Measure:     sweep.MeasureLoad,
		Ranks:       opts.Ranks,
		MsgsPerRank: opts.MsgsPerRank,
		Seed:        opts.Seed,
	}
	results, err := g.Collect(context.Background(), sweep.Options{Parallel: opts.Parallel, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	nPats, nLoads := len(pats), len(opts.Loads)
	at := func(i, p, l int) *sweep.Result { return &results[(i*nPats+p)*nLoads+l] }
	dfIdx := len(instances) - 1 // DragonFly is last
	points := make([]LoadPoint, 0, len(results))
	for i, si := range instances {
		for p, pat := range pats {
			for l, load := range opts.Loads {
				res := at(i, p, l)
				if res.Err != nil {
					return nil, res.Err // cell key already names the instance
				}
				baseRes := at(dfIdx, p, l)
				if baseRes.Err != nil {
					return nil, baseRes.Err
				}
				st, base := res.Stats, baseRes.Stats.MaxLatency
				sp := 0.0
				if st.MaxLatency > 0 {
					sp = float64(base) / float64(st.MaxLatency)
				}
				points = append(points, LoadPoint{
					Topology:   si.Name,
					Pattern:    pat,
					Load:       load,
					MaxLatency: st.MaxLatency,
					MeanLat:    st.MeanLatency,
					Speedup:    sp,
				})
			}
		}
	}
	return points, nil
}

// Fig8 compares Valiant to minimal routing on SpectralFly only: the
// value is max-time(minimal) / max-time(Valiant) per pattern and load
// (>1 means Valiant helps). Both policy legs of every point run as
// independent cells of one grid, but both legs run with
// Seed = opts.Seed (matching the old serial driver): they replay the
// same traffic realization (identical arrival times and
// destinations), so the ratio isolates the routing-policy effect
// rather than workload-sampling noise.
func Fig8(scale Scale, opts SimOptions) ([]LoadPoint, error) {
	opts = opts.withDefaults(scale)
	instances, err := SimInstances(scale)
	if err != nil {
		return nil, err
	}
	lps := instances[0]
	g := &sweep.Grid{
		Instances:   sweepInstances(instances[:1]),
		Policies:    []routing.Policy{routing.Minimal, routing.Valiant},
		Patterns:    traffic.SyntheticPatterns,
		Loads:       opts.Loads,
		Measure:     sweep.MeasureLoad,
		Ranks:       opts.Ranks,
		MsgsPerRank: opts.MsgsPerRank,
		Seed:        opts.Seed,
		// Both legs run with Seed = opts.Seed, as the serial driver
		// did: they replay the same traffic realization, so the ratio
		// isolates the routing-policy effect.
		SeedOf: func(*sweep.Cell, string) int64 { return opts.Seed },
	}
	results, err := g.Collect(context.Background(), sweep.Options{Parallel: opts.Parallel, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	// Cell order is policy-major: the minimal leg fills the first half
	// of the stream, the Valiant leg the second.
	half := len(results) / 2
	var points []LoadPoint
	i := 0
	for _, pat := range traffic.SyntheticPatterns {
		for _, load := range opts.Loads {
			min, val := &results[i], &results[half+i]
			i++
			if min.Err != nil {
				return nil, min.Err
			}
			if val.Err != nil {
				return nil, val.Err
			}
			sp := 0.0
			if val.Stats.MaxLatency > 0 {
				sp = float64(min.Stats.MaxLatency) / float64(val.Stats.MaxLatency)
			}
			points = append(points, LoadPoint{
				Topology:   lps.Name,
				Pattern:    pat,
				Load:       load,
				MaxLatency: val.Stats.MaxLatency,
				MeanLat:    val.Stats.MeanLatency,
				Speedup:    sp,
			})
		}
	}
	return points, nil
}

// FprintLoadPoints renders sweep points grouped by pattern.
func FprintLoadPoints(w io.Writer, points []LoadPoint) {
	fprintf(w, "%-22s %-14s %6s %12s %10s\n", "Topology", "Pattern", "Load", "MaxTime", "Speedup")
	for _, p := range points {
		fprintf(w, "%-22s %-14s %6.2f %12d %10.3f\n",
			p.Topology, p.Pattern, p.Load, p.MaxLatency, p.Speedup)
	}
}
