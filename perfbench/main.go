// Command perfbench is the repository's benchmark. It runs one named
// workload against the code in the enclosing checkout, checks every
// output it produces, and prints one JSON result line:
//
//	go run . --workload sim-load --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run (span
// self times and the measured tracing overhead included). The line
// before the result is a report: machine shape, seeds, output
// digests, the checks that failed and per-workload notes.
//
// Every workload is a sequence of batch jobs issued one at a time from
// one goroutine; only the program's own parallelism (two simulator
// shards, or two fabric workers) runs concurrently. The sequence is
// repeated as whole passes until --seconds have elapsed, and timings
// are medians over passes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one named benchmark input. setup builds everything a
// pass needs and is timed as setup_s; pass runs the job sequence once.
type workload struct {
	name string
	why  string
	// stages names the two timed stages of a pass, reported as
	// stage1_s and stage2_s (see BENCHMARK.json).
	stages [2]string
	setup  func(b *bench) (state, error)
	// heldOut runs a small slice of the workload at another seed and
	// checks its outputs, so a defect hidden by one seed's inputs shows.
	heldOut func(b *bench, seed int64) error
}

// state is one set-up workload, ready to run passes.
type state interface {
	// pass runs the job sequence once, adding the two stage times to
	// the pass record and recording checks and digests on b.
	pass(b *bench, p *passRecord) error
	// finish runs once after the timed passes: audits and probes that
	// are not part of the timed work.
	finish(b *bench) error
	// close releases what setup acquired.
	close()
}

var workloads = []workload{simLoad, sweepFaults, analyze}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Set-up is repeated at least minSetups times and until minSetupTime
// has been spent on it, and setup_s is the median: one slow set-up (a
// page-cache miss, a noisy neighbour) does not move it, and a set-up
// of milliseconds is sampled often enough to read steadily.
const (
	minSetups    = 3
	maxSetups    = 50
	minSetupTime = 2 * time.Second
)

// heldOutSeed derives the second seed every run also checks.
func heldOutSeed(seed int64) int64 { return seed ^ 0x5eed_b0b0 }

func main() {
	name := flag.String("workload", "", "workload: sim-load, sweep-faults or analyze")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement time; whole passes run until it has elapsed")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, report, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: report: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result: %v\n", err)
		os.Exit(1)
	}
}

// endToEndMetrics are the metrics of an untraced run, as listed in
// BENCHMARK.json. stage1_s and stage2_s are the two timed stages of a
// pass; each workload names its stages (workload.stages).
var endToEndMetrics = []string{"setup_s", "wall_s", "stage1_s", "stage2_s", "peak_rss_mb"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passRecord is one pass's timings.
type passRecord struct {
	traced bool
	wall   time.Duration
	stage  [2]time.Duration
}

// run sets the workload up repeatedly, runs passes for the measurement
// time and assembles the result. In a traced run passes
// alternate untraced and traced, so the tracing overhead is measured
// within one process.
func run(w workload, seed int64, seconds time.Duration, traced bool) (result, map[string]any, error) {
	b := newBench(seed)
	b.traced = traced
	var st state
	var setups []float64
	var spent float64
	for len(setups) < minSetups || (spent < minSetupTime.Seconds() && len(setups) < maxSetups) {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		b.beginSetup()
		t0 := time.Now()
		s, err := w.setup(b)
		if err != nil {
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		setups = append(setups, d)
		spent += d
		st = s
	}
	b.endSetup()

	var passes []passRecord
	start := time.Now()
	for i := 0; len(passes) == 0 || time.Since(start) < seconds || (traced && !hasBoth(passes)); i++ {
		p := passRecord{traced: traced && i%2 == 1}
		// Every pass starts from a collected heap, so one pass's garbage
		// does not bill the next.
		runtime.GC()
		b.tr.enable(p.traced)
		t0 := time.Now()
		root := b.tr.begin("bench.pass", 0)
		b.root = root
		if err := st.pass(b, &p); err != nil {
			return result{}, nil, fmt.Errorf("pass %d: %w", i, err)
		}
		b.tr.end(root)
		p.wall = time.Since(t0)
		b.tr.enable(false)
		b.passDone(p.traced)
		passes = append(passes, p)
	}
	b.root = 0
	b.tr.enable(traced)
	err := st.finish(b)
	st.close()
	b.tr.enable(false)
	if err != nil {
		return result{}, nil, fmt.Errorf("finish: %w", err)
	}
	if err := w.heldOut(b, heldOutSeed(seed)); err != nil {
		return result{}, nil, fmt.Errorf("held-out seed %d: %w", heldOutSeed(seed), err)
	}

	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted == 0 {
		return result{}, nil, fmt.Errorf("no output was checked")
	}
	untraced := selectPasses(passes, false)
	if traced {
		tracedPasses := selectPasses(passes, true)
		for k, v := range b.layerMetrics(median(wallOf(tracedPasses)) - median(wallOf(untraced))) {
			res.Metrics[k] = v
		}
	} else {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["wall_s"] = metric{median(wallOf(untraced)), "s"}
		res.Metrics["stage1_s"] = metric{median(stageOf(untraced, 0)), "s"}
		res.Metrics["stage2_s"] = metric{median(stageOf(untraced, 1)), "s"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	report := map[string]any{
		"workload":      w.name,
		"why":           w.why,
		"seed":          seed,
		"held_out_seed": heldOutSeed(seed),
		"traced":        traced,
		"passes":        len(passes),
		"pass_wall_s":   wallOf(passes),
		"pass_stage1_s": stageOf(passes, 0),
		"pass_stage2_s": stageOf(passes, 1),
		"setup_s_all":   setups,
		"stages":        w.stages,
		"error_rate":    float64(b.failed) / float64(b.attempted),
		"failures":      b.failures,
		"digests":       b.digestHex(),
		"rates":         b.rates,
		"notes":         b.notes,
		"machine":       machineShape(),
	}
	if traced {
		if err := b.tr.write(filepath.Join(scratchDir, "trace"), fmt.Sprintf("%s-seed%d.json", w.name, seed)); err != nil {
			return result{}, nil, fmt.Errorf("write trace: %w", err)
		}
		report["trace_file"] = b.tr.path
	}
	return res, report, nil
}

func hasBoth(passes []passRecord) bool {
	var u, t bool
	for _, p := range passes {
		u = u || !p.traced
		t = t || p.traced
	}
	return u && t
}

func selectPasses(passes []passRecord, traced bool) []passRecord {
	var out []passRecord
	for _, p := range passes {
		if p.traced == traced {
			out = append(out, p)
		}
	}
	return out
}

func wallOf(ps []passRecord) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

func stageOf(ps []passRecord, i int) []float64 {
	out := make([]float64, len(ps))
	for j, p := range ps {
		out[j] = p.stage[i].Seconds()
	}
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
