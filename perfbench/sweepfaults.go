package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	spectralfly "repro"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/sweep"
	"repro/internal/version"
)

// sweepFaults runs a fault and churn sweep over the four class-1
// families through the distributed fabric, cold and then warm.
// Why: its balance is the opposite of sim-load. Per-cell cost is table
// build, fault-plan sampling, incremental Repair/Restore, content
// keying and fabric overhead; the simulations are short and the tables
// fit in L2. The cold pass writes the cache and the warm passes read
// it, so both cache paths are measured.
var sweepFaults = workload{
	name: "sweep-faults",
	why: "96-cell fault and churn sweep over the class-1 families through a loopback coordinator with two workers, " +
		"then warm replays from its cache: fabric, repair and cache costs dominate",
	stages:  [2]string{"cold pass through the fabric (cold_cells_per_s)", "warm replays from the cache (warm_cells_per_s)"},
	setup:   setupSweepFaults,
	heldOut: heldOutSweepFaults,
}

const (
	sweepConc        = 2
	sweepLoad        = 0.3
	sweepMsgs        = 6   // messages per rank: short streams
	sweepTrials      = 3   // sampled plans per fault axis
	sweepChurnTrials = 2   // sampled schedules of the churn axis
	sweepWorkers     = 2   // fabric workers of the cold pass
	sweepWarmPasses  = 100 // warm replays per pass
	sweepAuditCells  = 6   // cells re-run without cache by the audit
)

// sweepSpecs are the class-1 instances of Table I, one per family.
var sweepSpecs = []string{"lps(23,11)", "sf(17)", "bf(37,3)", "df(24)"}

// Fault axes of the grid. The probe in finish re-samples exactly these
// plans and schedules.
var (
	sweepFaultAxes = []spectralfly.FaultAxis{
		spectralfly.FaultLinks(0.10, sweepTrials),
		spectralfly.FaultRouters(0.05, sweepTrials),
		spectralfly.FaultRegions(0.10, 8, sweepTrials),
	}
	sweepChurn = spectralfly.ChurnLinks(0.05, 100, 40, 2, sweepChurnTrials)
)

// scratchDir is where the benchmark keeps its temporary caches and
// trace files, relative to the checkout root.
const scratchDir = ".bench_build"

// newFaultSweep declares the grid; the coordinator and every worker
// build their own copy, as `serve` and `submit` processes do.
func newFaultSweep(seed int64) *spectralfly.Sweep {
	return spectralfly.NewSweep(sweepSpecs...).
		Concentration(sweepConc).
		Policies(spectralfly.RoutingMinimal, spectralfly.RoutingUGAL).
		Loads(sweepLoad).
		Faults(sweepFaultAxes...).
		Schedules(sweepChurn).
		MsgsPerRank(sweepMsgs).
		Seed(seed).
		Parallel(1)
}

type sweepState struct {
	seed    int64
	coord   *spectralfly.Sweep
	workers []*spectralfly.Sweep
	cells   []spectralfly.Cell
	fp      string
	tmp     string // per-run temporary directory of cold caches
	cache   *service.Cache
	cold    [][]byte // payloads of the first cold pass
	passes  int
}

func setupSweepFaults(b *bench) (state, error) {
	s := &sweepState{seed: b.seed}
	var err error
	for i := 0; i <= sweepWorkers; i++ {
		var sw *spectralfly.Sweep
		b.sample("topo.build_s", b.timed("topo.build", 0, func() { sw = newFaultSweep(s.seed) }).Seconds())
		var fp string
		b.timed("sweep.fingerprint", 0, func() { fp, err = sw.Fingerprint() })
		if err != nil {
			return nil, err
		}
		if i == 0 {
			s.coord, s.fp = sw, fp
			continue
		}
		// A joining worker must compute the same grid (submit's check).
		b.check(fp == s.fp, "worker %d grid fingerprint %s != coordinator %s", i, fp, s.fp)
		s.workers = append(s.workers, sw)
	}
	if s.cells, err = s.coord.Cells(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	if s.tmp, err = os.MkdirTemp(scratchDir, "sweep-faults-*"); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *sweepState) close() {
	if s.tmp != "" {
		os.RemoveAll(s.tmp)
	}
}

func (s *sweepState) pass(b *bench, p *passRecord) error {
	t0 := time.Now()
	stage := b.tr.begin("bench.cold", b.root)
	payloads, err := s.coldPass(b, stage)
	b.tr.end(stage)
	p.stage[0] = time.Since(t0)
	if err != nil {
		return err
	}
	b.rate("cold_cells_per_s", float64(len(s.cells)), p.stage[0])
	for i, pl := range payloads {
		b.digest(fmt.Sprintf("cell %d", i), pl)
	}
	if s.cold == nil {
		s.cold = payloads
	}

	t0 = time.Now()
	stage = b.tr.begin("bench.warm", b.root)
	replays := make([][][]byte, sweepWarmPasses)
	for i := range replays {
		if replays[i], err = warmPass(b, stage, s.coord, s.cache); err != nil {
			b.tr.end(stage)
			return err
		}
	}
	b.tr.end(stage)
	p.stage[1] = time.Since(t0)
	b.rate("warm_cells_per_s", float64(sweepWarmPasses*len(s.cells)), p.stage[1])
	for _, r := range replays {
		checkPayloads(b, "warm replay", r, payloads)
	}
	s.passes++
	return nil
}

// coldPass runs the grid through a fresh cache, an in-process
// coordinator on loopback and two RunWorker goroutines whose Exec calls
// Sweep.RunRange, as `serve` and `submit` do. The clock stops when the
// coordinator has emitted every cell.
func (s *sweepState) coldPass(b *bench, parent int) ([][]byte, error) {
	dir := filepath.Join(s.tmp, fmt.Sprintf("cold-%d", s.passes))
	cache, err := service.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	if s.cache != nil {
		os.RemoveAll(s.cache.Dir())
	}
	s.cache = cache
	var keys []string
	d := b.timed("sweep.keys", parent, func() { keys, err = s.coord.CellKeys() })
	if err != nil {
		return nil, err
	}
	b.sample("sweep.keys_s", d.Seconds())
	// serve looks every cell up before handing work out; on a fresh
	// cache all of them miss.
	for _, k := range keys {
		_, ok := cache.Get(k)
		b.check(!ok, "fresh cache hit for key %s", k)
	}

	n := len(keys)
	payloads := make([][]byte, n)
	errs := make([]string, n)
	emit := func(i int, key string, payload []byte, errMsg string) error {
		errs[i] = errMsg
		if errMsg != "" {
			return nil
		}
		if _, err := sweep.DecodePayload(payload); err != nil {
			return fmt.Errorf("cell %d payload: %w", i, err)
		}
		payloads[i] = payload
		d := b.timed("service.cache_put", parent, func() { cache.Put(key, payload) })
		b.sample("service.cache_put_s", d.Seconds())
		return nil
	}
	coord, err := service.NewCoordinator(service.CoordinatorConfig{
		Info: service.GridInfo{Cells: n, Fingerprint: s.fp, Version: version.Stamp()},
		Emit: emit,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	url := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	werrs := make([]error, len(s.workers))
	var wg sync.WaitGroup
	for w, sw := range s.workers {
		tt := &tracedTransport{b: b, parent: parent, base: http.DefaultTransport}
		wg.Add(1)
		go func() {
			defer wg.Done()
			werrs[w] = service.RunWorker(ctx, service.WorkerConfig{
				Coordinator:  url,
				Name:         fmt.Sprintf("bench-worker-%d", w),
				Exec:         s.exec(b, sw, keys, parent, tt),
				PollInterval: 2 * time.Millisecond,
				Client:       &http.Client{Timeout: 30 * time.Second, Transport: tt},
			})
		}()
	}
	var cerr error
	select {
	case <-coord.Done():
		cerr = coord.Err()
	case <-time.After(2 * time.Minute):
		cerr = fmt.Errorf("cold pass timed out")
		cancel()
	}
	// Workers learn the grid is done from their next claim; wait for
	// them before the server goes away.
	wg.Wait()
	shut, stop := context.WithTimeout(context.Background(), 5*time.Second)
	srv.Shutdown(shut)
	stop()
	srv.Close()
	if cerr != nil {
		return nil, cerr
	}
	for w, err := range werrs {
		b.checkErr(err, fmt.Sprintf("worker %d", w))
	}
	st := cache.Stats()
	b.check(st.Puts == int64(n), "cold pass cached %d of %d cells", st.Puts, n)
	b.sample("service.cache_misses", float64(st.Misses))
	b.sample("service.cache_puts", float64(st.Puts))
	failed := 0
	for i, c := range s.cells {
		if errs[i] != "" {
			failed++
			b.check(false, "cell %d (%s %s %s): %s", i, c.Topology, c.Fault, c.Schedule, errs[i])
			continue
		}
		p, err := sweep.DecodePayload(payloads[i])
		if err != nil {
			b.check(false, "cell %d payload: %v", i, err)
			continue
		}
		checkConservation(b, fmt.Sprintf("cell %d (%s %s %s)", i, c.Topology, c.Fault, c.Schedule),
			p.Stats, c.Fault == "none" && c.Schedule == "")
	}
	b.sample("sweep.cells_failed", float64(failed))
	return payloads, nil
}

// exec adapts ranged execution to the worker protocol, as the CLI's
// submit does: one encoded payload per cell, posted in index order.
func (s *sweepState) exec(b *bench, sw *spectralfly.Sweep, keys []string, parent int, tt *tracedTransport) func(context.Context, int, int, func(int, string, []byte, string) error) error {
	return func(ctx context.Context, lo, hi int, post func(int, string, []byte, string) error) error {
		span := b.tr.begin("sweep.exec", parent)
		tt.cur.Store(int64(span))
		defer func() {
			tt.cur.Store(0)
			b.tr.end(span)
		}()
		t0 := time.Now()
		last := t0
		err := sw.RunRange(ctx, lo, hi, func(res spectralfly.CellResult) error {
			b.sample("sweep.cell_s.p50", time.Since(last).Seconds())
			b.sample("sweep.cell_s.p90", time.Since(last).Seconds())
			var payload []byte
			var errMsg string
			if res.Err != nil {
				errMsg = res.Err.Error()
			} else {
				var err error
				if payload, err = sweep.EncodePayload(res); err != nil {
					return err
				}
			}
			err := post(res.Index, keys[res.Index], payload, errMsg)
			last = time.Now()
			return err
		})
		b.sample("sweep.exec_s", time.Since(t0).Seconds())
		return err
	}
}

// warmPass replays the grid from the cache the way a restarted `serve`
// does: key the grid, look every cell up, and hand the hits to a
// coordinator as its prefilled prefix, which emits them at once. It
// returns the payloads emitted, in cell order.
func warmPass(b *bench, parent int, sw *spectralfly.Sweep, cache *service.Cache) ([][]byte, error) {
	var keys []string
	var err error
	d := b.timed("sweep.keys", parent, func() { keys, err = sw.CellKeys() })
	if err != nil {
		return nil, err
	}
	b.sample("sweep.keys_s", d.Seconds())
	before := cache.Stats()
	prefilled := make([]service.JournalEntryPayload, 0, len(keys))
	d = b.timed("service.cache_get", parent, func() {
		for i, k := range keys {
			if p, ok := cache.Get(k); ok {
				prefilled = append(prefilled, service.JournalEntryPayload{Index: i, Key: k, Payload: p})
			}
		}
	})
	b.sample("service.cache_get_s", d.Seconds())
	b.sample("service.cache_hits", float64(cache.Stats().Hits-before.Hits))
	if len(prefilled) < len(keys) {
		// A miss would need workers; the warm pass has none.
		return nil, fmt.Errorf("warm pass: %d of %d cells missing from the cache", len(keys)-len(prefilled), len(keys))
	}
	out := make([][]byte, len(keys))
	var coord *service.Coordinator
	b.timed("service.coordinator", parent, func() {
		coord, err = service.NewCoordinator(service.CoordinatorConfig{
			Info: service.GridInfo{Cells: len(keys)},
			Emit: func(i int, _ string, payload []byte, _ string) error {
				if _, err := sweep.DecodePayload(payload); err != nil {
					return fmt.Errorf("cell %d payload: %w", i, err)
				}
				out[i] = payload
				return nil
			},
			Prefilled: prefilled,
		})
	})
	if err != nil {
		return nil, err
	}
	select {
	case <-coord.Done():
	default:
		return nil, fmt.Errorf("warm pass: coordinator did not finish from its prefilled cells")
	}
	return out, nil
}

// tracedTransport times each fabric request of one worker, counts
// requests and claims answered "wait", and parents its spans under the
// worker's current Exec span (or the cold pass outside one).
type tracedTransport struct {
	b      *bench
	parent int
	cur    atomic.Int64
	base   http.RoundTripper
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.b.tr.enabled() {
		return t.base.RoundTrip(req)
	}
	parent := int(t.cur.Load())
	if parent == 0 {
		parent = t.parent
	}
	op := path.Base(req.URL.Path)
	span := t.b.tr.begin("service."+op, parent)
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err == nil && op == "claim" {
		// Read the grant inside the timed span: the round trip ends
		// when the worker has its answer.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var grant service.ClaimResponse
		if rerr == nil && json.Unmarshal(body, &grant) == nil && grant.Wait {
			t.b.sample("service.empty_claims", 1)
		}
	}
	d := time.Since(t0)
	t.b.tr.end(span)
	t.b.sample("service.requests", 1)
	switch op {
	case "claim":
		t.b.sample("service.claim_rtt_s.p50", d.Seconds())
	case "result":
		t.b.sample("service.result_rtt_s.p50", d.Seconds())
	}
	return resp, err
}

// finish audits the fabric from outside and, in a traced run, probes
// the fault layer over the grid's own plans and schedules.
func (s *sweepState) finish(b *bench) error {
	b.note("sweep-faults: cell statistics come from the unvalidated simulator (no reference results in this " +
		"repository); they are checked for conservation, determinism and cache/fabric fidelity only")
	if err := s.audit(b); err != nil {
		return err
	}
	if b.traced {
		return s.probe(b)
	}
	return nil
}

// audit re-runs a seeded sample of cells with Sweep.RunRange and no
// cache, and compares them byte for byte with the payloads the
// coordinator emitted (which the warm passes replayed identically).
func (s *sweepState) audit(b *bench) error {
	sw := newFaultSweep(s.seed)
	rng := rand.New(rand.NewSource(s.seed))
	for _, i := range rng.Perm(len(s.cells))[:sweepAuditCells] {
		var got []byte
		err := sw.RunRange(context.Background(), i, i+1, func(res spectralfly.CellResult) error {
			if res.Err != nil {
				return res.Err
			}
			var err error
			got, err = sweep.EncodePayload(res)
			return err
		})
		if err != nil {
			b.check(false, "audit cell %d: %v", i, err)
			continue
		}
		b.check(bytes.Equal(got, s.cold[i]), "audit cell %d: uncached re-run differs from the fabric's payload", i)
	}
	return nil
}

// probe times the fault layer on the grid's own fault plans and churn
// schedules (the seeds the sweep derives from its plan and schedule
// keys): plan sampling, incremental Repair of the intact table, and
// Restore back to intact, which must reproduce the intact distances.
func (s *sweepState) probe(b *bench) error {
	for _, spec := range sweepSpecs {
		net, err := spectralfly.BuildSpec(spec)
		if err != nil {
			return err
		}
		g := net.G
		base := routing.NewTable(g)
		for _, f := range sweepFaultAxes {
			for trial := 0; trial < f.Trials; trial++ {
				plan := fault.Plan{Kind: f.Kind, Fraction: f.Fraction, RegionSize: f.RegionSize,
					Seed: runner.DeriveSeed(s.seed, fmt.Sprintf("sweep/plan/%s/%s/%v/%d", net.Name, f.Kind, f.Fraction, trial))}
				var out fault.Outcome
				b.sample("fault.plan_s", b.timed("fault.plan", 0, func() { out = plan.Apply(g) }).Seconds())
				var rep, res *routing.Table
				b.sample("routing.repair_s", b.timed("routing.repair", 0, func() { rep = base.Repair(out.Removed) }).Seconds())
				b.sample("routing.restore_s", b.timed("routing.restore", 0, func() { res = rep.Restore(out.Removed) }).Seconds())
				checkTablesEqual(b, fmt.Sprintf("%s %s trial %d restore", net.Name, f.Kind, trial), base, res)
			}
		}
		for trial := 0; trial < sweepChurn.Trials; trial++ {
			cs := fault.ChurnSpec{Kind: sweepChurn.Kind, Fraction: sweepChurn.Fraction, RegionSize: sweepChurn.RegionSize,
				Period: sweepChurn.Period, Outage: sweepChurn.Outage, Repeats: sweepChurn.Repeats,
				Seed: runner.DeriveSeed(s.seed, fmt.Sprintf("sweep/schedule/%s/%s/%d", net.Name, sweepChurn.Name, trial))}
			var sched fault.Schedule
			b.sample("fault.plan_s", b.timed("fault.plan", 0, func() { sched, err = cs.Schedule(g) }).Seconds())
			b.checkErr(err, "churn schedule")
			b.checkErr(sched.Validate(g), "churn schedule validate")
		}
	}
	return nil
}

// checkTablesEqual compares every distance of two tables.
func checkTablesEqual(b *bench, what string, want, got *routing.Table) {
	n := want.G.N()
	bad := 0
	for d := 0; d < n; d++ {
		for v := 0; v < n; v++ {
			if want.HopDist(v, d) != got.HopDist(v, d) {
				bad++
			}
		}
	}
	b.check(bad == 0, "%s: %d distances differ from the intact table", what, bad)
}

// heldOutSweepFaults runs the first topology's cells of the grid at
// another seed, without cache or fabric, and checks them.
func heldOutSweepFaults(b *bench, seed int64) error {
	sw := newFaultSweep(seed)
	cells, err := sw.Cells()
	if err != nil {
		return err
	}
	perTopo := len(cells) / len(sweepSpecs)
	return sw.RunRange(context.Background(), 0, perTopo, func(res spectralfly.CellResult) error {
		if res.Err != nil {
			b.check(false, "held-out cell %d: %v", res.Index, res.Err)
			return nil
		}
		checkConservation(b, fmt.Sprintf("held-out cell %d", res.Index), res.Stats, res.Fault == "none" && res.Schedule == "")
		return nil
	})
}
