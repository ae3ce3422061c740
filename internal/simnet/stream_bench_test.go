package simnet

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/routing"
	"repro/internal/topo"
)

// preallocRunLoad replays the pre-streaming RunLoad: every message of
// the run is materialized up front — one arena packet and one queued
// arrival event per message — before a single drain. It is kept (test
// only) as the measured baseline for the streaming loop's memory and
// throughput gates; workload draws come from the same per-endpoint
// generators, so the two loops process statistically identical
// traffic (arrivals are not paced by injection events, so the stats
// need not be bit-identical). The instance must run on one shard.
func preallocRunLoad(nw *Network, pattern PatternFunc, load float64, msgsPerEP int) Stats {
	nw.reset()
	nw.pattern = pattern
	nw.meanGap = float64(nw.cfg.PacketFlits) / load
	if nw.gens == nil {
		nw.gens = make([]epGen, nw.nep)
	}
	v := nw.begin(int64(msgsPerEP))[0]
	for ep := 0; ep < nw.nep; ep++ {
		g := &nw.gens[ep]
		g.src.state = mixSeed(nw.cfg.Seed, int64(ep))
		if g.rng == nil {
			g.rng = rand.New(&g.src)
		}
		g.t = 0
		for m := 0; m < msgsPerEP; m++ {
			at := g.next(nw.meanGap)
			dst := pattern(ep, g.rng)
			if dst == ep || dst < 0 || dst >= nw.nep {
				continue
			}
			v.stats.Offered++
			if nw.isDead(nw.routerOf(int32(ep))) || nw.isDead(nw.routerOf(int32(dst))) {
				v.dropRun++
				continue
			}
			pi := v.newPacket(packet{
				srcEP:     int32(ep),
				dstEP:     int32(dst),
				dstRouter: nw.routerOf(int32(dst)),
				interm:    -2,
				created:   at,
			})
			v.newStream(pi, int64(ep*msgsPerEP+m))
			v.inject(pi, at)
		}
	}
	nw.drive(nw.cfg.Schedule.Cursor())
	return nw.fold()
}

// class1StreamNet builds the class-1 gate instance: LPS(11,7) with
// concentration 4 (672 endpoints), the size of the Quick-scale sweep
// topologies.
func class1StreamNet(tb testing.TB) *Network {
	tb.Helper()
	inst := topo.MustLPS(11, 7)
	tab := routing.NewTable(inst.G)
	nw, err := New(Config{Topo: inst.G, Concentration: 4, Seed: 11}, tab)
	if err != nil {
		tb.Fatal(err)
	}
	return nw
}

const (
	streamGateLoad = 0.35
	streamGateMsgs = 64
)

func uniformPattern(nep int) PatternFunc {
	return func(src int, rng *rand.Rand) int { return rng.Intn(nep) }
}

// TestRunLoadStreamMemoryGate is the acceptance gate of the streaming
// run loop: at a class-1 load point its steady-state working set
// (event queue + arena + latency store, via MemoryBytes) must be at
// least 2× below the pre-streaming loop that materialized the whole
// run up front. Memory accounting is deterministic, so the gate always
// arms (no env guard).
func TestRunLoadStreamMemoryGate(t *testing.T) {
	stream := class1StreamNet(t)
	st := stream.RunLoad(uniformPattern(stream.Endpoints()), streamGateLoad, streamGateMsgs)
	legacy := class1StreamNet(t)
	lt := preallocRunLoad(legacy, uniformPattern(legacy.Endpoints()), streamGateLoad, streamGateMsgs)
	if st.Delivered == 0 || lt.Delivered == 0 {
		t.Fatalf("idle gate run: stream %d, prealloc %d delivered", st.Delivered, lt.Delivered)
	}
	if st.Offered != lt.Offered {
		t.Fatalf("workloads diverged: stream offered %d, prealloc %d", st.Offered, lt.Offered)
	}
	t.Logf("streaming %d B vs prealloc %d B (%.1fx)", st.MemoryBytes, lt.MemoryBytes,
		float64(lt.MemoryBytes)/float64(st.MemoryBytes))
	if 2*st.MemoryBytes > lt.MemoryBytes {
		t.Errorf("streaming working set %d B is not ≥2x below the prealloc loop's %d B",
			st.MemoryBytes, lt.MemoryBytes)
	}
}

// TestRunLoadStreamTimeGate holds the streaming loop to "no slowdown"
// against the prealloc baseline (min-of-5, 10%% + absolute allowance
// for scheduler jitter). Timing gates are noise-sensitive, so it only
// arms under SPECTRALFLY_BENCH_GATE=1, like the sweep-overhead gate.
func TestRunLoadStreamTimeGate(t *testing.T) {
	if os.Getenv("SPECTRALFLY_BENCH_GATE") == "" {
		t.Skip("timing gate armed only with SPECTRALFLY_BENCH_GATE=1")
	}
	stream := class1StreamNet(t)
	legacy := class1StreamNet(t)
	patS := uniformPattern(stream.Endpoints())
	patL := uniformPattern(legacy.Endpoints())
	const reps = 5
	minS, minL := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < reps; i++ {
		start := time.Now()
		stream.RunLoad(patS, streamGateLoad, streamGateMsgs)
		if d := time.Since(start); d < minS {
			minS = d
		}
		start = time.Now()
		preallocRunLoad(legacy, patL, streamGateLoad, streamGateMsgs)
		if d := time.Since(start); d < minL {
			minL = d
		}
	}
	budget := minL + minL/10 + 20*time.Millisecond
	t.Logf("streaming %v vs prealloc %v (budget %v)", minS, minL, budget)
	if minS > budget {
		t.Errorf("streaming run loop took %v, over the no-slowdown budget %v (prealloc %v)",
			minS, budget, minL)
	}
}

// BenchmarkRunLoadStream measures the streaming loop against the
// prealloc baseline at the class-1 gate point, reporting the working
// set alongside ns/op.
func BenchmarkRunLoadStream(b *testing.B) {
	b.Run("stream", func(b *testing.B) {
		nw := class1StreamNet(b)
		pattern := uniformPattern(nw.Endpoints())
		var st Stats
		for i := 0; i < b.N; i++ {
			st = nw.RunLoad(pattern, streamGateLoad, streamGateMsgs)
		}
		b.ReportMetric(float64(st.MemoryBytes), "mem-bytes")
	})
	b.Run("prealloc", func(b *testing.B) {
		nw := class1StreamNet(b)
		pattern := uniformPattern(nw.Endpoints())
		var st Stats
		for i := 0; i < b.N; i++ {
			st = preallocRunLoad(nw, pattern, streamGateLoad, streamGateMsgs)
		}
		b.ReportMetric(float64(st.MemoryBytes), "mem-bytes")
	})
}
