package sweep

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
	"repro/internal/version"
)

// memCache is an in-memory CellCache that counts traffic: a second
// pass with Misses == 0 proves the run scheduled zero simulations
// (every cell that reaches the engine was first a recorded miss).
type memCache struct {
	mu     sync.Mutex
	m      map[string][]byte
	hits   int
	misses int
	puts   int
}

func newMemCache() *memCache { return &memCache{m: map[string][]byte{}} }

func (c *memCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return b, ok
}

func (c *memCache) Put(key string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = append([]byte(nil), payload...)
	c.puts++
}

// cacheGrid is a fault grid plus a churn schedule axis — every group
// kind the cache must handle.
func cacheGrid(t testing.TB) *Grid {
	g := faultGrid(t)
	g.Instances = g.Instances[:1]
	g.Schedules = []ScheduleAxis{
		{Name: "churn", Kind: fault.Links, Fraction: 0.05, Period: 400, Outage: 150, Repeats: 2, Trials: 2},
	}
	return g
}

// TestWarmCacheZeroSimulations: a second run of an identical grid
// against a warmed cache answers every cell from the store — no
// misses, no new puts, byte-identical results.
func TestWarmCacheZeroSimulations(t *testing.T) {
	cache := newMemCache()
	cold, err := cacheGrid(t).Collect(context.Background(), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	n := len(cold)
	if n == 0 {
		t.Fatal("empty grid")
	}
	if cache.misses != n || cache.puts != n {
		t.Fatalf("cold pass: %d misses, %d puts, want %d each", cache.misses, cache.puts, n)
	}
	cache.misses, cache.puts, cache.hits = 0, 0, 0

	warm, err := cacheGrid(t).Collect(context.Background(), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.misses != 0 || cache.puts != 0 {
		t.Fatalf("warm pass ran simulations: %d misses, %d puts", cache.misses, cache.puts)
	}
	if cache.hits != n {
		t.Fatalf("warm pass: %d hits, want %d", cache.hits, n)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("warm results diverge from cold run")
	}

	// The baseline without a cache must be untouched by the feature.
	plain, err := cacheGrid(t).Collect(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, plain) {
		t.Error("cache-enabled run diverges from the plain run")
	}
}

// TestPartialCacheInterleavesInOrder warms only scattered cells and
// checks the mixed hit/miss stream still arrives in cell order with
// the same values.
func TestPartialCacheInterleavesInOrder(t *testing.T) {
	full := newMemCache()
	cold, err := cacheGrid(t).Collect(context.Background(), Options{Cache: full})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := cacheGrid(t).ContentKeys()
	if err != nil {
		t.Fatal(err)
	}
	partial := newMemCache()
	for i := 0; i < len(keys); i += 2 { // every other cell warmed
		if b, ok := full.m[keys[i]]; ok {
			partial.m[keys[i]] = b
		}
	}
	mixed, err := cacheGrid(t).Collect(context.Background(), Options{Cache: partial})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, mixed) {
		t.Error("partially warmed run diverges")
	}
	for i, res := range mixed {
		if res.Index != i {
			t.Fatalf("position %d delivered index %d", i, res.Index)
		}
	}
}

// TestCacheRejectsOpaqueSchedules: a Make-func schedule axis cannot be
// content-addressed.
func TestCacheRejectsOpaqueSchedules(t *testing.T) {
	g := cacheGrid(t)
	g.Schedules = append(g.Schedules, ScheduleAxis{
		Name: "rewire",
		Make: func(gr *graph.Graph, seed int64) (fault.Schedule, error) { return nil, nil },
	})
	err := g.Run(context.Background(), Options{Cache: newMemCache()}, func(Result) error { return nil })
	if err == nil {
		t.Fatal("opaque schedule cached without error")
	}
	if _, err := g.ContentKeys(); err == nil {
		t.Fatal("ContentKeys accepted an opaque schedule")
	}
	if _, err := g.Fingerprint(); err == nil {
		t.Fatal("Fingerprint accepted an opaque schedule")
	}
	// Without the cache the same grid still runs (sampled per trial).
	g2 := cacheGrid(t)
	g2.Schedules = g2.Schedules[:1]
	if err := g2.Run(context.Background(), Options{}, func(Result) error { return nil }); err != nil {
		t.Fatalf("cacheless run of a churn grid: %v", err)
	}
}

// TestRunRangeMatchesRun: any partition of [0, n) into RunRange calls
// reproduces the full run's results cell for cell.
func TestRunRangeMatchesRun(t *testing.T) {
	full, err := cacheGrid(t).Collect(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(full)
	for _, step := range []int{1, 2, 3, n} {
		var parts []Result
		for lo := 0; lo < n; lo += step {
			hi := lo + step
			if hi > n {
				hi = n
			}
			err := cacheGrid(t).RunRange(context.Background(), Options{}, lo, hi, func(res Result) error {
				parts = append(parts, res)
				return nil
			})
			if err != nil {
				t.Fatalf("range [%d,%d): %v", lo, hi, err)
			}
		}
		if !reflect.DeepEqual(full, parts) {
			t.Errorf("step %d: concatenated ranges diverge from the full run", step)
		}
	}
	// hi < 0 means the end of the grid.
	var tail []Result
	if err := cacheGrid(t).RunRange(context.Background(), Options{}, n-2, -1, func(res Result) error {
		tail = append(tail, res)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full[n-2:], tail) {
		t.Error("open-ended range diverges")
	}
}

// TestPayloadRoundTrip: encode/decode reproduces every statistic
// exactly, and failed cells refuse to encode.
func TestPayloadRoundTrip(t *testing.T) {
	res, err := cacheGrid(t).Collect(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		b, err := EncodePayload(r)
		if err != nil {
			t.Fatal(err)
		}
		p, err := DecodePayload(b)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Stats.Equal(r.Stats) || p.Saturation != r.Saturation {
			t.Fatalf("cell %d: payload round trip lost data", r.Index)
		}
	}
	bad := res[0]
	bad.Err = fmt.Errorf("boom")
	if _, err := EncodePayload(bad); err == nil {
		t.Fatal("encoded a failed cell")
	}
}

// fakeMotif lets tests pin motifs whose display names collide.
type fakeMotif struct {
	name   string
	rounds [][][2]int32
}

func (f fakeMotif) Name() string         { return f.name }
func (f fakeMotif) Rounds() [][][2]int32 { return f.rounds }

// TestContentKeyDiscrimination: everything a cell's measurement
// depends on must move its content key.
func TestContentKeyDiscrimination(t *testing.T) {
	keysOf := func(g *Grid) []string {
		ks, err := g.ContentKeys()
		if err != nil {
			t.Fatal(err)
		}
		return ks
	}

	base := keysOf(cacheGrid(t))

	// Stability: an identical grid reproduces identical keys.
	if !reflect.DeepEqual(base, keysOf(cacheGrid(t))) {
		t.Error("identical grids produced different keys")
	}

	// Workers does not enter keys, because it cannot change results:
	// runs at Workers 0, 1, 2 and 8 store the same payloads under the
	// same keys.
	var stored map[string][]byte
	for _, w := range []int{0, 1, 2, 8} {
		cache := newMemCache()
		if _, err := cacheGrid(t).Collect(context.Background(), Options{Workers: w, Cache: cache}); err != nil {
			t.Fatal(err)
		}
		if stored == nil {
			stored = cache.m
			for _, k := range base {
				if _, ok := stored[k]; !ok {
					t.Fatalf("run stored no payload under content key %s", k)
				}
			}
		} else if !reflect.DeepEqual(cache.m, stored) {
			t.Errorf("Workers=%d stored different keys or payloads than Workers=0", w)
		}
	}

	// FaultAxis.RegionSize is absent from the default cell identity
	// string but changes the sampled plan — the content key must see it.
	rs := cacheGrid(t)
	rs.Faults[1].RegionSize = 4
	if reflect.DeepEqual(base, keysOf(rs)) {
		t.Error("RegionSize did not move the fault cells' keys")
	}

	// The code version stamp invalidates everything.
	old := version.Stamp()
	version.Override(old + "+next")
	stamped := keysOf(cacheGrid(t))
	version.Override(old)
	for i := range base {
		if base[i] == stamped[i] {
			t.Fatalf("cell %d key survived a version change", i)
		}
	}

	// Motifs hash their rounds, not their names: a quick and a full
	// variant sharing a display name must not share keys.
	motifGrid := func(m traffic.Motif) *Grid {
		return &Grid{
			Instances: testInstances(t)[:1],
			Policies:  []routing.Policy{routing.Minimal},
			Motifs:    []traffic.Motif{m},
			Measure:   MeasureMotif,
			Ranks:     64,
			Seed:      7,
		}
	}
	quick := keysOf(motifGrid(fakeMotif{name: "halo", rounds: [][][2]int32{{{0, 1}}}}))
	fullM := keysOf(motifGrid(fakeMotif{name: "halo", rounds: [][][2]int32{{{0, 1}}, {{1, 0}}}}))
	if quick[0] == fullM[0] {
		t.Error("motifs with equal names but different rounds share a key")
	}

	// Overlapping grids share the keys of their common cells: dropping
	// the schedule axis must not move the fault cells' keys.
	noSched := cacheGrid(t)
	noSched.Schedules = nil
	sub := keysOf(noSched)
	if !reflect.DeepEqual(base[:len(sub)], sub) {
		t.Error("removing an unrelated axis moved the remaining cells' keys")
	}
}

// TestFingerprint pins the full-grid identity: stable for identical
// grids, moved by any axis change. It is a function of the grid alone —
// no execution option (Parallel, Workers) enters it — so coordinators
// and workers at any Workers value agree (the façade test
// TestSweepFingerprintAndKeys pins that end to end).
func TestFingerprint(t *testing.T) {
	fp := func(g *Grid) string {
		s, err := g.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := fp(cacheGrid(t)), fp(cacheGrid(t))
	if a != b {
		t.Error("identical grids fingerprint differently")
	}
	mod := cacheGrid(t)
	mod.Schedules = nil
	if fp(mod) == a {
		t.Error("axis removal did not move the fingerprint")
	}
	mod2 := cacheGrid(t)
	mod2.Seed++
	if fp(mod2) == a {
		t.Error("seed change did not move the fingerprint")
	}
}

// fuzz instances are built once — topology construction dominates the
// fuzz loop otherwise.
var fuzzInstOnce = sync.OnceValues(func() ([]Instance, error) {
	lps, err := topo.LPS(11, 7)
	if err != nil {
		return nil, err
	}
	return []Instance{{Name: lps.Name, Inst: lps, Concentration: 2}}, nil
})

// FuzzCellKeyInjective generates grids across the axis space and
// checks that both identity schemes discriminate: the default cell
// key strings are pairwise distinct (they feed per-cell seed
// derivation — a collision would correlate cells), and so are the
// content-addressed keys (a collision would alias cache entries).
func FuzzCellKeyInjective(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(2), uint8(2), uint8(2), uint8(2), uint8(1))
	f.Add(int64(42), uint8(1), uint8(3), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(-7), uint8(3), uint8(1), uint8(3), uint8(1), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nPol, nPat, nLoad, nFault, nTrial, nSched uint8) {
		insts, err := fuzzInstOnce()
		if err != nil {
			t.Skip(err)
		}
		allPols := []routing.Policy{routing.Minimal, routing.Valiant, routing.UGALL}
		allPats := []traffic.Pattern{traffic.Random, traffic.Transpose, traffic.BitShuffle}
		allKinds := []fault.Kind{fault.Links, fault.Routers, fault.Regions}
		g := &Grid{
			Instances: insts,
			Policies:  allPols[:int(nPol)%3+1],
			Patterns:  allPats[:int(nPat)%3+1],
			Measure:   MeasureLoad,
			Ranks:     32,
			Seed:      seed,
		}
		for i := 0; i <= int(nLoad)%3; i++ {
			g.Loads = append(g.Loads, 0.1+0.2*float64(i))
		}
		// Distinct (kind, fraction) pairs per axis entry: the default
		// cell identity does not see RegionSize or Trials, so colliding
		// pairs would collide by design (the content keys still must
		// not — they carry the plan parameters).
		for i := 0; i < int(nFault)%3; i++ {
			g.Faults = append(g.Faults, FaultAxis{
				Kind:     allKinds[i],
				Fraction: 0.05 + 0.05*float64(i),
				Trials:   int(nTrial)%2 + 1,
			})
		}
		for i := 0; i < int(nSched)%3; i++ {
			g.Schedules = append(g.Schedules, ScheduleAxis{
				Name: fmt.Sprintf("churn%d", i),
				Kind: allKinds[i], Fraction: 0.05, Period: 400, Outage: 100,
				Repeats: 1, Trials: int(nTrial)%2 + 1,
			})
		}
		cells := g.Cells()
		seen := make(map[string]int, len(cells))
		for i := range cells {
			k := cellKey(&cells[i])
			if j, dup := seen[k]; dup {
				t.Fatalf("cell key collision: cells %d and %d both map to %q", j, i, k)
			}
			seen[k] = i
		}
		keys, err := g.ContentKeys()
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != len(cells) {
			t.Fatalf("%d content keys for %d cells", len(keys), len(cells))
		}
		ck := make(map[string]int, len(keys))
		for i, k := range keys {
			if j, dup := ck[k]; dup {
				t.Fatalf("content key collision: cells %d and %d", j, i)
			}
			ck[k] = i
		}
	})
}
