package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp"
)

// These golden tests pin the exact -json documents of every simulation
// subcommand at a tiny fixed-seed configuration, rendered at -workers 0
// and at -workers 4 against the same file: results may not depend on
// the shard count. Any change to a golden file here is a change to a
// published result. Regenerate (only for a deliberate numeric change)
// with
//
//	go test ./cmd/spectralfly -run Golden -update
var update = flag.Bool("update", false, "rewrite the CLI golden files")

// goldenConfigs lists every pinned subcommand with the (cheap) flag
// configuration it is pinned at. Configurations mirror what a user
// would pass on the command line; axes without flags use the drivers'
// quick-scale defaults, exactly as the binary would.
func goldenConfigs() map[string]appConfig {
	base := appConfig{scale: exp.Quick, class: 1, maxN: 4000, store: "packed"}
	sim := base
	sim.simOpts = exp.SimOptions{Ranks: 64, MsgsPerRank: 4}

	satur := base
	satur.simOpts = exp.SimOptions{MsgsPerRank: 6}

	resil := base
	resil.simOpts = exp.SimOptions{Ranks: 64, MsgsPerRank: 4}

	scale := base
	scale.simOpts = exp.SimOptions{MsgsPerRank: 4}

	recon := base
	recon.simOpts = exp.SimOptions{Ranks: 64, MsgsPerRank: 4}

	// interference: 64-rank aggressor (victim 16), two aggressor loads,
	// both quick-scale topology families, all three placement policies.
	interf := base
	interf.simOpts = exp.SimOptions{Ranks: 64, MsgsPerRank: 4}
	interf.loads = []float64{0.1, 0.5}

	return map[string]appConfig{
		"fig6":         sim,
		"fig7":         sim,
		"fig8":         sim,
		"fig9":         sim,
		"fig10":        sim,
		"saturation":   satur,
		"resilience":   resil,
		"reconfig":     recon,
		"interference": interf,
		"scale":        scale,
		"ablations":    base,
	}
}

func TestCLIGoldenJSON(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join("testdata", name+".json")
			for _, workers := range []int{0, 4} {
				cfg := cfg
				cfg.simOpts.Workers = workers
				f, ok := commands(cfg)[name]
				if !ok {
					t.Fatalf("no %q subcommand", name)
				}
				result, err := f()
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := encodeJSON(&buf, name, cfg.scale, result); err != nil {
					t.Fatal(err)
				}
				if *update && workers == 0 {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update to create): %v", err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s -json at -workers %d drifted from its golden file.\n--- got ---\n%s\n--- want ---\n%s",
						name, workers, buf.Bytes(), want)
				}
			}
		})
	}
}
