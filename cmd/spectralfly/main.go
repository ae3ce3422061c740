// Command spectralfly regenerates every table and figure of the
// SpectralFly paper's evaluation. Each subcommand corresponds to one
// exhibit (see DESIGN.md §3 for the experiment index):
//
//	spectralfly table1        [-classes 0,1,2,3,4] [-full]
//	spectralfly fig4-feasible [-maxpq 300]
//	spectralfly fig4-sizes
//	spectralfly fig4-normbw   [-maxpq 100] [-maxn 4000]
//	spectralfly fig4-rawbw    [-classes ...] [-full]
//	spectralfly fig5          [-class 1] [-full]
//	spectralfly fig6          [-full] [-ranks N] [-msgs N] [-parallel N]
//	spectralfly fig7          [-full] ...
//	spectralfly fig8          [-full] ...
//	spectralfly fig9          [-full]
//	spectralfly fig10         [-full]
//	spectralfly table2        [-full]
//	spectralfly fig11         [-full]
//	spectralfly resilience    [-full] [-fractions 0.05,0.1] [-trials N] [-parallel N]
//	spectralfly reconfig      [-full] [-period N] [-parallel N]
//	spectralfly interference  [-full] [-loads 0.1,0.4] [-layout qap]
//	spectralfly scale         [-full] [-store packed|lazy|dense] [-resident N] [-rungs 0,1,2]
//	spectralfly sweep         -topos lps(11,7),sf(9) [-measure load|motif|saturation] ...
//	spectralfly serve         -topos ... [-addr host:port] [-cache-dir D] [-chunk N]
//	spectralfly submit        -coord http://host:port [-parallel N] [-cache-dir D]
//	spectralfly version
//	spectralfly all           [-full]   (everything except scale, in order)
//
// Without -full each experiment runs a scaled-down configuration with
// the same structure (seconds instead of minutes); -full reproduces the
// paper's exact instance sizes. Simulation sweeps execute on the
// sweep executor (internal/sweep): -parallel N sizes the
// worker pool (0 = GOMAXPROCS, 1 = serial) without changing any
// result. -workers N additionally shards each simulation across N
// goroutines, again without changing any result (0/1 is one shard;
// with -parallel 0 the cell pool shrinks to GOMAXPROCS/N so cells ×
// shards never oversubscribe the machine). -cpuprofile/-memprofile write
// pprof profiles of the run. -json emits the result rows as JSON (one
// document per exhibit, stamped with the code version) for scripted
// sweeps.
//
// Sweeps are a distributed, resumable fabric (DESIGN.md §12): -cache
// / -cache-dir answer cells from a content-addressed result store
// (re-running an identical grid against a warm cache simulates
// nothing and reproduces the output byte for byte), -resume journals
// the delivered prefix so a killed sweep continues where it stopped,
// and serve/submit shard one grid across worker processes over
// HTTP/JSON with work stealing and heartbeat-based failover — with
// output byte-identical to the single-process run.
package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/topo"
	"repro/internal/version"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if cmd == "version" {
		fmt.Println(version.Stamp())
		return
	}
	fl := parseFlags(cmd, os.Args[2:])
	stopProfiles, err := startProfiles(fl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := dispatch(cmd, fl)
	// os.Exit skips deferred calls, so the profile finalizers run
	// explicitly on every path that reaches here (error exits inside
	// dispatch are reported through the return code).
	stopProfiles()
	os.Exit(code)
}

// dispatch runs the subcommand and returns the process exit code.
func dispatch(cmd string, fl cliFlags) int {
	scale := exp.Quick
	if fl.full {
		scale = exp.Full
	}
	cfg := appConfig{
		scale:     scale,
		classes:   parseClasses(fl.classes),
		class:     fl.class,
		maxPQ:     fl.maxPQ,
		maxN:      fl.maxN,
		seed:      fl.seed,
		simOpts:   exp.SimOptions{Ranks: fl.ranks, MsgsPerRank: fl.msgs, Seed: fl.seed, Parallel: fl.parallel, Workers: fl.workers},
		fractions: parseFractions(fl.fractions),
		trials:    fl.trials,
		period:    fl.period,
		store:     fl.store,
		resident:  fl.resident,
		rungs:     parseClasses(fl.rungs),
		loads:     parseFractions(fl.loads),
		layout:    fl.layout,
	}
	cmds := commands(cfg)

	run := func(name string, f func() (any, error)) bool {
		start := time.Now()
		if !fl.jsonOut {
			fmt.Printf("== %s (%s scale) ==\n", name, scale)
		}
		result, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return false
		}
		if fl.jsonOut {
			if err := encodeJSON(os.Stdout, name, scale, result); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				return false
			}
			return true
		}
		printResult(result)
		fmt.Printf("-- %s done in %v --\n\n", name, time.Since(start).Round(time.Millisecond))
		return true
	}

	// "scale" is deliberately absent: at -full it builds six 12K–40K
	// router instances (minutes to hours of simulation each), a cost
	// users must opt into explicitly rather than inherit from `all`.
	order := []string{
		"table1", "fig3", "fig4-feasible", "fig4-sizes", "fig4-normbw",
		"fig4-rawbw", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"table2", "fig11", "ablations", "saturation", "resilience",
		"reconfig", "interference",
	}
	if cmd == "all" {
		for _, name := range order {
			if !run(name, cmds[name]) {
				return 1
			}
		}
		return 0
	}
	if cmd == "sweep" {
		if !run("sweep", func() (any, error) { return runSweep(fl) }) {
			return 1
		}
		return 0
	}
	// serve emits the same "sweep" exhibit as a single-process run:
	// with -json, a distributed grid's document is byte-identical to
	// the sweep subcommand's.
	if cmd == "serve" {
		if !run("sweep", func() (any, error) { return runServe(fl) }) {
			return 1
		}
		return 0
	}
	if cmd == "submit" {
		if err := runSubmit(fl); err != nil {
			fmt.Fprintf(os.Stderr, "submit: %v\n", err)
			return 1
		}
		return 0
	}
	f, ok := cmds[cmd]
	if !ok {
		usage()
		return 2
	}
	if !run(cmd, f) {
		return 1
	}
	return 0
}

// printResult renders a command result in its table form.
func printResult(v any) {
	switch r := v.(type) {
	case []exp.Table1Row:
		exp.FprintTable1(os.Stdout, r)
	case []topo.Feasible:
		exp.FprintFeasible(os.Stdout, r)
		fmt.Printf("(%d feasible instances)\n", len(r))
	case exp.Fig4Sizes:
		fmt.Println("LPS:")
		exp.FprintFeasible(os.Stdout, r.LPS)
		fmt.Println("SlimFly:")
		exp.FprintFeasible(os.Stdout, r.SlimFly)
		fmt.Println("DragonFly:")
		exp.FprintFeasible(os.Stdout, r.DragonFly)
		fmt.Println("BundleFly (max size per radix):")
		exp.FprintFeasible(os.Stdout, r.BundleFlyMax)
	case []exp.BisectionRow:
		exp.FprintBisection(os.Stdout, r)
	case []exp.Fig5Point:
		exp.FprintFig5(os.Stdout, r)
	case []exp.LoadPoint:
		exp.FprintLoadPoints(os.Stdout, r)
	case []exp.MotifPoint:
		exp.FprintMotifPoints(os.Stdout, r)
	case []exp.Table2Row:
		exp.FprintTable2(os.Stdout, r)
	case []exp.Fig11Point:
		exp.FprintFig11(os.Stdout, r)
	case []exp.Fig3Row:
		exp.FprintFig3(os.Stdout, r)
	case exp.Ablations:
		r.Fprint(os.Stdout)
	case []exp.SaturationRow:
		exp.FprintSaturation(os.Stdout, r)
	case []exp.ResiliencePoint:
		exp.FprintResilience(os.Stdout, r)
	case *exp.ReconfigReport:
		exp.FprintReconfig(os.Stdout, r)
	case *exp.InterferenceReport:
		exp.FprintInterference(os.Stdout, r)
	case []exp.ScalePoint:
		exp.FprintScale(os.Stdout, r)
	case []sweepRow:
		printSweep(r)
	default:
		fmt.Printf("%+v\n", v)
	}
}

func parseFractions(s string) []float64 {
	if s == "" {
		return nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad fraction %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseClasses(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad class %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: spectralfly <command> [flags]

commands:
  table1         structural properties of the Table I size classes
  fig4-feasible  feasible LPS (radix, size) points
  fig4-sizes     feasible sizes per radix for all four families
  fig4-normbw    normalized bisection bandwidth of LPS instances
  fig4-rawbw     raw bisection bandwidth comparison
  fig5           structural properties under random link failures
  fig6           UGAL-L synthetic-pattern sweep (speedup vs DragonFly)
  fig7           minimal-routing random-pattern sweep
  fig8           Valiant vs minimal on SpectralFly
  fig9           Ember motifs under minimal routing
  fig10          Ember motifs under UGAL-L routing
  table2         machine-room layout: wires, power, efficiency
  fig11          end-to-end latency vs switch latency (ratio to SkyWalk)
  ablations      design-choice ablation studies (arrangement, spectra, ...)
  saturation     measured saturation load per simulated topology (§VI-C)
  resilience     performance under failure: traffic on damaged networks
  reconfig       live reconfiguration: static vs rewiring Jellyfish fabric
                 under shifting traffic [-period N]
  interference   multi-tenant interference: victim tail latency vs
                 aggressor load across topology families × tenant
                 placement policies, under layout-derived per-link wire
                 latencies [-loads 0.1,0.4] [-layout qap|faq|sequential]
  scale          large-n sweep (Table II ladder to ~40K routers) on the
                 compact routing oracle; reports peak table memory
  sweep          declarative cross-product grid over any topology set:
                 -topos lps(11,7),sf(9),jf(512,12,s=1) [-conc N]
                 -measure load|motif|saturation [-policies minimal,ugal-l]
                 [-patterns random,transpose] [-loads 0.2,0.5]
                 [-motifs halo3d,fft] [-faults links:0.05,regions:0.1:16]
                 [-trials N] [-intact=false] [-store packed]
  serve          coordinate a sweep grid for submit workers: same grid
                 flags as sweep, plus [-addr host:port] [-chunk N]
                 [-heartbeat D]; cells already in the cache are served
                 from it (a warm grid finishes with zero workers), and
                 the finished grid prints exactly what sweep would
  submit         join a coordinator as a worker: -coord http://host:port
                 [-parallel N] [-workers N] [-cache-dir D]; refuses on version or
                 grid-fingerprint skew
  version        print the code version stamp (also in -json documents)
  all            run everything in order (except scale: opt in explicitly)

flags: -full (paper-scale), -classes 0,1, -class N, -maxpq N, -maxn N,
       -ranks N, -msgs N, -seed N, -parallel N (0=GOMAXPROCS, 1=serial),
       -workers N (intra-run simulator shards; 0/1=one shard),
       -fractions 0.05,0.1 -trials N (resilience fault grid),
       -store packed|lazy|dense -resident N -rungs 0,1,2 (scale sweep),
       -cache -cache-dir D (content-addressed result cache),
       -resume (journal + replay a killed sweep's prefix),
       -cpuprofile f -memprofile f (write pprof profiles),
       -json (emit JSON result documents)`)
}
