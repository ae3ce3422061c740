package exp

import (
	"context"
	"io"

	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// MotifPoint is one Ember-motif measurement (Figures 9-10).
type MotifPoint struct {
	Topology string
	Motif    string
	Makespan int64
	MeanLat  float64
	P99Lat   int64
	Speedup  float64 // vs DragonFly at the same motif & routing
}

// MotifSet returns the four §VI-D motifs at the given scale together
// with the rank count they are sized for — in exhibit order: Halo3D-26,
// Sweep3D, balanced FFT, unbalanced FFT. The fig9/fig10 presets and
// the CLI's generic sweep share this table, so the shapes cannot
// silently diverge.
func MotifSet(scale Scale) ([]traffic.Motif, int) {
	if scale == Full {
		// 8192 ranks, matching the paper's job size.
		return []traffic.Motif{
			traffic.Halo3D26{NX: 32, NY: 16, NZ: 16, Iters: 2},
			traffic.Sweep3D{PX: 128, PY: 64, Sweeps: 1},
			traffic.FFT{NX: 32, NY: 32, NZ: 8, Iters: 1}, // balanced
			traffic.FFT{NX: 128, NY: 8, NZ: 8, Iters: 1}, // unbalanced
		}, 8192
	}
	return []traffic.Motif{
		traffic.Halo3D26{NX: 8, NY: 8, NZ: 8, Iters: 2},
		traffic.Sweep3D{PX: 32, PY: 16, Sweeps: 1},
		traffic.FFT{NX: 8, NY: 8, NZ: 8, Iters: 1},  // balanced
		traffic.FFT{NX: 32, NY: 4, NZ: 4, Iters: 1}, // unbalanced
	}, 512
}

// RunMotifs executes the Ember motifs of §VI-D on the §VI-B topology
// set under the given routing policy; Figure 9 uses Minimal, Figure 10
// UGAL-L. Speedups are relative to the DragonFly makespan. The
// (topology × motif) grid runs through the parallel engine; only
// opts.Seed and opts.Parallel are consulted.
func RunMotifs(scale Scale, pol routing.Policy, opts SimOptions) ([]MotifPoint, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = BaseSeed
	}
	instances, err := SimInstances(scale)
	if err != nil {
		return nil, err
	}
	motifs, ranks := MotifSet(scale)
	g := &sweep.Grid{
		Instances: sweepInstances(instances),
		Policies:  []routing.Policy{pol},
		Motifs:    motifs,
		Measure:   sweep.MeasureMotif,
		Ranks:     ranks,
		Seed:      seed,
	}
	results, err := g.Collect(context.Background(), sweep.Options{Parallel: opts.Parallel, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	at := func(i, m int) *sweep.Result { return &results[i*len(motifs)+m] }
	dfIdx := len(instances) - 1 // DragonFly is last = baseline
	points := make([]MotifPoint, 0, len(results))
	for i, si := range instances {
		for m, motif := range motifs {
			res := at(i, m)
			if res.Err != nil {
				return nil, res.Err // job key already names the instance
			}
			baseRes := at(dfIdx, m)
			if baseRes.Err != nil {
				return nil, baseRes.Err
			}
			mk, base := res.Stats.Makespan, baseRes.Stats.Makespan
			sp := 0.0
			if mk > 0 {
				sp = float64(base) / float64(mk)
			}
			points = append(points, MotifPoint{
				Topology: si.Name,
				Motif:    motif.Name(),
				Makespan: mk,
				MeanLat:  res.Stats.MeanLatency,
				P99Lat:   res.Stats.P99Latency,
				Speedup:  sp,
			})
		}
	}
	return points, nil
}

// FprintMotifPoints renders motif results.
func FprintMotifPoints(w io.Writer, points []MotifPoint) {
	fprintf(w, "%-22s %-18s %14s %12s %12s %8s\n", "Topology", "Motif", "Makespan", "MeanLat", "P99Lat", "Speedup")
	for _, p := range points {
		fprintf(w, "%-22s %-18s %14d %12.1f %12d %8.3f\n",
			p.Topology, p.Motif, p.Makespan, p.MeanLat, p.P99Lat, p.Speedup)
	}
}
