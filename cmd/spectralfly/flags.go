package main

import (
	"flag"
	"os"
	"time"
)

// cliFlags holds the raw flag values shared by every subcommand.
type cliFlags struct {
	full     bool
	classes  string
	class    int
	maxPQ    int64
	maxN     int
	ranks    int
	msgs     int
	seed     int64
	parallel int
	workers  int
	jsonOut  bool

	// Profiling outputs.
	cpuprofile string
	memprofile string
	fractions  string
	trials     int
	period     int64
	store      string
	resident   int
	rungs      string

	// Generic sweep grid flags.
	topos    string
	conc     int
	policies string
	patterns string
	motifs   string
	loads    string
	faults   string
	measure  string
	intact   bool
	layout   string

	// Distributed fabric flags (sweep / serve / submit).
	addr      string
	coord     string
	cacheOn   bool
	cacheDir  string
	resume    bool
	chunk     int
	heartbeat time.Duration
}

// parseFlags parses the flag set for one subcommand invocation.
func parseFlags(cmd string, args []string) cliFlags {
	var fl cliFlags
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	fs.BoolVar(&fl.full, "full", false, "run the paper's full-scale configuration")
	fs.StringVar(&fl.classes, "classes", "", "comma-separated Table I size classes (0-4)")
	fs.IntVar(&fl.class, "class", 1, "size class for fig5 (paper uses 1 and 3)")
	fs.Int64Var(&fl.maxPQ, "maxpq", 0, "p,q bound for LPS enumerations")
	fs.IntVar(&fl.maxN, "maxn", 4000, "vertex cap for the fig4-normbw partitioner sweep")
	fs.IntVar(&fl.ranks, "ranks", 0, "override MPI rank count for simulations")
	fs.IntVar(&fl.msgs, "msgs", 0, "override messages per rank for simulations")
	fs.Int64Var(&fl.seed, "seed", 0, "override base seed")
	fs.IntVar(&fl.parallel, "parallel", 0, "simulation worker pool size (0 = GOMAXPROCS, 1 = serial)")
	fs.IntVar(&fl.workers, "workers", 0, "intra-run simulator shards per cell (0/1 = one shard; results are identical for every value; with -parallel 0 the cell pool shrinks to GOMAXPROCS/workers)")
	fs.StringVar(&fl.cpuprofile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&fl.memprofile, "memprofile", "", "write a pprof heap profile to this file at exit")
	fs.BoolVar(&fl.jsonOut, "json", false, "emit results as JSON instead of tables")
	fs.StringVar(&fl.fractions, "fractions", "", "comma-separated failure fractions for resilience (e.g. 0.05,0.1,0.2)")
	fs.IntVar(&fl.trials, "trials", 0, "failure plans per (fault,fraction) cell for resilience")
	fs.Int64Var(&fl.period, "period", 0, "rewiring / traffic-shift period in cycles for reconfig (0 = scale default)")
	fs.StringVar(&fl.store, "store", "packed", "routing-table backend for scale: packed, lazy or dense")
	fs.IntVar(&fl.resident, "resident", 0, "max resident shards for the lazy routing store (0 = default)")
	fs.StringVar(&fl.rungs, "rungs", "", "comma-separated scale-ladder rungs for scale (0-2; default all)")
	fs.StringVar(&fl.topos, "topos", "", "sweep topology axis, e.g. lps(11,7),sf(9),jf(512,12,s=1)")
	fs.IntVar(&fl.conc, "conc", 1, "endpoints per router for sweep topologies")
	fs.StringVar(&fl.policies, "policies", "", "sweep routing-policy axis, e.g. minimal,ugal-l")
	fs.StringVar(&fl.patterns, "patterns", "", "sweep pattern axis, e.g. random,bit-shuffle")
	fs.StringVar(&fl.motifs, "motifs", "", "sweep motif axis: halo3d,sweep3d,fft,fft-unbalanced")
	fs.StringVar(&fl.loads, "loads", "", "sweep offered-load axis, e.g. 0.2,0.5")
	fs.StringVar(&fl.faults, "faults", "", "sweep fault axis, e.g. links:0.05,regions:0.1:16")
	fs.StringVar(&fl.measure, "measure", "", "sweep measure: load (default), motif or saturation")
	fs.StringVar(&fl.layout, "layout", "", "interference: machine-room placement mode for per-link wire latencies (qap, faq or sequential; default qap)")
	fs.BoolVar(&fl.intact, "intact", true, "include the intact baseline cells in a fault sweep")
	fs.StringVar(&fl.addr, "addr", "127.0.0.1:8077", "serve: listen address for the coordinator")
	fs.StringVar(&fl.coord, "coord", "", "submit: coordinator base URL, e.g. http://127.0.0.1:8077")
	fs.BoolVar(&fl.cacheOn, "cache", false, "enable the content-addressed result cache at its default directory")
	fs.StringVar(&fl.cacheDir, "cache-dir", "", "result cache directory (implies -cache; default ~/.cache/spectralfly)")
	fs.BoolVar(&fl.resume, "resume", false, "sweep: journal delivered cells and replay a killed run's prefix from the cache (implies -cache)")
	fs.IntVar(&fl.chunk, "chunk", 0, "serve: cells per claimed worker range (0 = auto)")
	fs.DurationVar(&fl.heartbeat, "heartbeat", 0, "serve: silence after which a worker's ranges are re-queued (0 = 10s)")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	return fl
}
