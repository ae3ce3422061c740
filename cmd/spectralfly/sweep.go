package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	spectralfly "repro"
	"repro/internal/exp"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// sweepRow is the JSON/table row of the generic sweep subcommand: the
// cell identity plus its measurement, with per-cell failures rendered
// as strings.
type sweepRow struct {
	spectralfly.Cell
	Stats      spectralfly.SimStats
	Saturation float64 `json:",omitempty"`
	Error      string  `json:",omitempty"`
}

// sweepSpec is the wire-serializable description of a sweep grid: the
// exact grid-identity subset of the sweep flag surface, so a submit
// worker rebuilds the identical grid from the coordinator's copy and
// verifies it by Fingerprint. Per-process execution knobs (-parallel,
// -workers, -store, -resident, -cache-dir) deliberately stay out — they
// change how fast a process computes, never what it computes.
type sweepSpec struct {
	Topos    string `json:"topos"`
	Conc     int    `json:"conc,omitempty"`
	Measure  string `json:"measure,omitempty"`
	Policies string `json:"policies,omitempty"`
	Patterns string `json:"patterns,omitempty"`
	Motifs   string `json:"motifs,omitempty"`
	Loads    string `json:"loads,omitempty"`
	Faults   string `json:"faults,omitempty"`
	Trials   int    `json:"trials,omitempty"`
	Intact   bool   `json:"intact"`
	Ranks    int    `json:"ranks,omitempty"`
	Msgs     int    `json:"msgs,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
}

// specFromFlags extracts the grid description from the parsed flags.
func specFromFlags(fl cliFlags) sweepSpec {
	return sweepSpec{
		Topos: fl.topos, Conc: fl.conc, Measure: fl.measure,
		Policies: fl.policies, Patterns: fl.patterns, Motifs: fl.motifs,
		Loads: fl.loads, Faults: fl.faults, Trials: fl.trials,
		Intact: fl.intact, Ranks: fl.ranks, Msgs: fl.msgs,
		Seed: fl.seed,
	}
}

// sweep builds the declared grid through the public Sweep API,
// resolving the same defaults the sweep subcommand documents.
func (sp sweepSpec) sweep() (*spectralfly.Sweep, error) {
	if sp.Topos == "" {
		return nil, fmt.Errorf("sweep needs -topos, e.g. -topos 'lps(11,7),sf(9)' (grammar: lps(p,q) sf(q) bf(p,s) df(a) dfc(a,h,g) jf(n,k,s=1) xp(k,l,s=1))")
	}
	conc := sp.Conc
	if conc <= 0 {
		conc = 1
	}
	sw := spectralfly.NewSweep().
		Concentration(conc).
		Topologies(splitSpecs(sp.Topos)...).
		Ranks(sp.Ranks).
		MsgsPerRank(sp.Msgs).
		Seed(sp.Seed)

	if sp.Policies != "" {
		var pols []routing.Policy
		for _, name := range strings.Split(sp.Policies, ",") {
			var p routing.Policy
			if err := p.UnmarshalText([]byte(strings.TrimSpace(name))); err != nil {
				return nil, err
			}
			pols = append(pols, p)
		}
		sw.Policies(pols...)
	}

	switch sp.Measure {
	case "", "load":
		if sp.Patterns != "" {
			var pats []traffic.Pattern
			for _, name := range strings.Split(sp.Patterns, ",") {
				var p traffic.Pattern
				if err := p.UnmarshalText([]byte(strings.TrimSpace(name))); err != nil {
					return nil, err
				}
				pats = append(pats, p)
			}
			sw.Patterns(pats...)
		}
		loads := parseFractions(sp.Loads)
		if loads == nil {
			loads = []float64{0.1, 0.2, 0.3, 0.5, 0.6, 0.7}
		}
		sw.Loads(loads...)
	case "motif":
		motifs, ranks, err := parseMotifs(sp.Motifs)
		if err != nil {
			return nil, err
		}
		sw.Motifs(motifs...)
		if sp.Ranks == 0 {
			sw.Ranks(ranks)
		}
	case "saturation":
		sw.Saturation(3)
	default:
		return nil, fmt.Errorf("unknown -measure %q (want load, motif or saturation)", sp.Measure)
	}

	if sp.Faults != "" {
		axes, err := parseFaults(sp.Faults, sp.Trials)
		if err != nil {
			return nil, err
		}
		sw.Faults(axes...)
	}
	if !sp.Intact {
		sw.IntactBaseline(false)
	}
	return sw, nil
}

// applyLocalKnobs wires the per-process execution flags — cell pool,
// simulator shards, table backend and the optional result cache — onto
// a built sweep.
func applyLocalKnobs(sw *spectralfly.Sweep, fl cliFlags) error {
	store, err := routing.ParseStore(fl.store)
	if err != nil {
		return err
	}
	sw.Parallel(fl.parallel).
		Workers(fl.workers).
		Tables(spectralfly.TableOptions{Store: store, MaxResident: fl.resident})
	if fl.cacheOn || fl.cacheDir != "" || fl.resume {
		sw.Cache(fl.cacheDir).Resume(fl.resume)
	}
	return nil
}

// runSweep executes the declarative grid described by the -topos /
// -policies / -patterns / -motifs / -loads / -faults / -measure flags
// through the public Sweep API. ^C cancels the context; the sweep
// stops promptly at cell granularity. With -cache/-cache-dir results
// come from and go to the content-addressed cache; -resume adds the
// delivered-prefix journal.
func runSweep(fl cliFlags) (any, error) {
	sw, err := specFromFlags(fl).sweep()
	if err != nil {
		return nil, err
	}
	if err := applyLocalKnobs(sw, fl); err != nil {
		return nil, err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var rows []sweepRow
	err = sw.Run(ctx, func(res spectralfly.CellResult) error {
		row := sweepRow{Cell: res.Cell, Stats: res.Stats, Saturation: res.Saturation}
		if res.Err != nil {
			row.Error = res.Err.Error()
		}
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		if ctx.Err() != nil {
			// Interrupted: report what was measured before the ^C.
			fmt.Fprintf(os.Stderr, "sweep: interrupted after %d cells\n", len(rows))
			return rows, nil
		}
		return nil, err
	}
	return rows, nil
}

// splitSpecs splits a comma-separated topology list respecting the
// parentheses of the spec grammar: "lps(11,7),sf(9)" is two specs.
func splitSpecs(s string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if part := strings.TrimSpace(s[start:]); part != "" {
		out = append(out, part)
	}
	return out
}

// parseMotifs maps motif names onto exp.MotifSet's quick-scale §VI-D
// shapes (the same table the fig9/fig10 presets run), returning the
// rank count they are sized for.
func parseMotifs(s string) ([]traffic.Motif, int, error) {
	if s == "" {
		s = "halo3d,sweep3d,fft,fft-unbalanced"
	}
	set, ranks := exp.MotifSet(exp.Quick)
	index := map[string]traffic.Motif{
		"halo3d": set[0], "sweep3d": set[1], "fft": set[2], "fft-unbalanced": set[3],
	}
	var out []traffic.Motif
	for _, name := range strings.Split(s, ",") {
		m, ok := index[strings.TrimSpace(name)]
		if !ok {
			return nil, 0, fmt.Errorf("unknown motif %q (want halo3d, sweep3d, fft or fft-unbalanced)", name)
		}
		out = append(out, m)
	}
	return out, ranks, nil
}

// parseFaults parses the fault axis flag: comma-separated
// kind:fraction entries (regions optionally kind:fraction:regionsize),
// e.g. "links:0.05,regions:0.1:16". trials applies to every axis.
func parseFaults(s string, trials int) ([]spectralfly.FaultAxis, error) {
	var out []spectralfly.FaultAxis
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("bad fault %q (want kind:fraction, e.g. links:0.05)", entry)
		}
		frac, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad fault fraction %q", parts[1])
		}
		var regionSize int
		if len(parts) > 2 {
			if regionSize, err = strconv.Atoi(parts[2]); err != nil {
				return nil, fmt.Errorf("bad region size %q", parts[2])
			}
		}
		switch parts[0] {
		case "links":
			out = append(out, spectralfly.FaultLinks(frac, trials))
		case "routers":
			out = append(out, spectralfly.FaultRouters(frac, trials))
		case "regions":
			out = append(out, spectralfly.FaultRegions(frac, regionSize, trials))
		default:
			return nil, fmt.Errorf("unknown fault kind %q (want links, routers or regions)", parts[0])
		}
	}
	return out, nil
}

// printSweep renders sweep rows as a table.
func printSweep(rows []sweepRow) {
	fmt.Printf("%-22s %-8s %6s %3s %-8s %-16s %-11s %5s %10s %11s %11s %11s\n",
		"Topology", "Fault", "Frac", "Tr", "Policy", "Pattern/Motif", "Measure", "Load",
		"Delivered", "MeanLat", "P99Lat", "Saturation")
	for _, r := range rows {
		if r.Error != "" {
			fmt.Printf("%-22s %-8s %6.2f %3d  ERROR: %s\n", r.Topology, r.Fault, r.Fraction, r.Trial, r.Error)
			continue
		}
		work := r.Pattern.String()
		measure := "load"
		if r.MotifTag != "" {
			work, measure = r.MotifTag, "motif"
		} else if r.Load == 0 {
			work, measure = "-", "saturation"
		}
		fmt.Printf("%-22s %-8s %6.2f %3d %-8s %-16s %-11s %5.2f %10.4f %11.1f %11d %11.2f\n",
			r.Topology, r.Fault, r.Fraction, r.Trial, r.Policy, work, measure, r.Load,
			r.Stats.DeliveredFraction(), r.Stats.MeanLatency, r.Stats.P99Latency, r.Saturation)
	}
}
