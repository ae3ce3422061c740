package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/version"
)

// maxListedFailures caps the failure descriptions kept for the report;
// every failure is still counted.
const maxListedFailures = 20

// bench is the per-run recorder shared by the workloads: output
// checks, the per-pass output digest, per-layer samples, host rates
// and the span tracer.
type bench struct {
	seed   int64
	tr     *tracer
	traced bool // the run reports per-layer metrics
	root   int  // span of the pass in progress

	attempted, failed int
	failures          []string

	passHash   hash.Hash
	passDigest string // digest of the first pass's outputs

	mu      sync.Mutex // guards samples and passSum (fabric workers sample)
	samples map[string][]float64
	passSum map[string]bool // sampled inside passes: sums are per pass
	rateNum map[string]float64
	rateDen map[string]float64
	rates   map[string]float64
	notes   []string
	passes  int // traced passes completed
}

func newBench(seed int64) *bench {
	return &bench{
		seed:     seed,
		tr:       newTracer(),
		passHash: sha256.New(),
		samples:  map[string][]float64{},
		passSum:  map[string]bool{},
		rateNum:  map[string]float64{},
		rateDen:  map[string]float64{},
		rates:    map[string]float64{},
	}
}

// check counts one checked output; a false ok is a failure.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if ok {
		return
	}
	b.failed++
	if len(b.failures) < maxListedFailures {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// checkErr counts one operation that must not fail.
func (b *bench) checkErr(err error, what string) {
	if err != nil {
		b.check(false, "%s: %v", what, err)
		return
	}
	b.check(true, "")
}

// digest folds one output into the pass digest. Every pass must
// produce the same digest: the workloads are deterministic functions
// of the seed.
func (b *bench) digest(label string, v any) {
	fmt.Fprintf(b.passHash, "%s\n", label)
	if raw, ok := v.([]byte); ok {
		b.passHash.Write(raw)
		b.passHash.Write([]byte{'\n'})
		return
	}
	enc := json.NewEncoder(b.passHash)
	if err := enc.Encode(v); err != nil {
		b.check(false, "digest %s: %v", label, err)
	}
}

// passDone closes a pass: its digest must equal the first pass's.
func (b *bench) passDone(traced bool) {
	sum := hex.EncodeToString(b.passHash.Sum(nil))
	b.passHash.Reset()
	if b.passDigest == "" {
		b.passDigest = sum
	} else {
		b.check(sum == b.passDigest, "pass outputs differ from the first pass (digest %s vs %s)", sum, b.passDigest)
	}
	if traced {
		b.passes++
	}
}

func (b *bench) digestHex() map[string]string {
	return map[string]string{"outputs_sha256": b.passDigest}
}

// beginSetup starts one set-up. Each drops what the one before it
// recorded, so the per-layer set-up metrics of a traced run describe
// its last set-up.
func (b *bench) beginSetup() {
	b.tr.reset()
	b.tr.enable(b.traced)
	b.root = 0
	b.samples = map[string][]float64{}
	b.passSum = map[string]bool{}
}

func (b *bench) endSetup() { b.tr.enable(false) }

// timed runs f inside a span named name (a "<module>.<operation>"
// label naming the layer f calls into) and returns its host time. The
// time is measured whether or not tracing is on.
func (b *bench) timed(name string, parent int, f func()) time.Duration {
	id := b.tr.begin(name, parent)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	b.tr.end(id)
	return d
}

// sample records a per-layer observation; only traced set-ups, passes
// and finishes record, so untraced runs pay nothing for them.
func (b *bench) sample(name string, v float64) {
	if !b.tr.enabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.samples[name] = append(b.samples[name], v)
	if b.root != 0 {
		b.passSum[name] = true
	}
}

// rate accumulates an end-to-end host rate (work per host second)
// from untraced passes; the report lists them by the names the
// workload definitions use.
func (b *bench) rate(name string, work float64, d time.Duration) {
	if b.tr.enabled() {
		return
	}
	b.rateNum[name] += work
	b.rateDen[name] += d.Seconds()
	if b.rateDen[name] > 0 {
		b.rates[name] = b.rateNum[name] / b.rateDen[name]
	}
}

func (b *bench) note(s string) { b.notes = append(b.notes, s) }

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// machineShape records what the numbers were measured on.
func machineShape() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	l2 := "unknown"
	if b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index2/size"); err == nil {
		l2 = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpu,
		"l2_per_core":   l2,
		"version_stamp": version.Stamp(),
		"source_sha256": sourceDigest("."),
	}
}

// sourceDigest hashes the checkout's Go sources and module files, so a
// result identifies the code it measured even where the checkout is
// not a git repository (then the version stamp carries no commit).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
