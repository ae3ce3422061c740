package routing

import (
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

func TestPackedRowWidths(t *testing.T) {
	cases := []struct {
		name string
		dist []int32
		bits uint8
	}{
		{"nibble", []int32{-1, 0, 1, 7, 14}, 4},
		{"byte", []int32{-1, 0, 15, 200, 254}, 8},
		{"wide", []int32{-1, 0, 255, 100000}, 32},
	}
	for _, c := range cases {
		r := encodeRow(c.dist)
		if r.bits != c.bits {
			t.Errorf("%s: encoded at %d bits, want %d", c.name, r.bits, c.bits)
		}
		for v, want := range c.dist {
			if got := r.at(v); got != want {
				t.Errorf("%s: at(%d) = %d, want %d", c.name, v, got, want)
			}
		}
		dec := r.decode(nil, len(c.dist))
		for v, want := range c.dist {
			if dec[v] != want {
				t.Errorf("%s: decode[%d] = %d, want %d", c.name, v, dec[v], want)
			}
		}
	}
}

// TestStoreWidthFallbackOnLongPath drives the byte and nibble
// boundaries with real graphs: a 300-vertex path has distances up to
// 299, overflowing both the nibble and the byte range.
func TestStoreWidthFallbackOnLongPath(t *testing.T) {
	for _, n := range []int{20, 200, 300} {
		b := graph.NewBuilder(n)
		for v := 0; v+1 < n; v++ {
			b.AddEdge(v, v+1)
		}
		g := b.Build()
		dense := NewTable(g)
		packed := NewTableOpts(g, TableOptions{Store: StorePacked})
		for d := 0; d < n; d += 7 {
			for v := 0; v < n; v++ {
				if dense.HopDist(v, d) != packed.HopDist(v, d) {
					t.Fatalf("n=%d: packed dist(%d,%d)=%d, dense=%d",
						n, v, d, packed.HopDist(v, d), dense.HopDist(v, d))
				}
			}
		}
		if dense.Diameter() != packed.Diameter() {
			t.Fatalf("n=%d: diameter %d vs %d", n, packed.Diameter(), dense.Diameter())
		}
	}
}

// TestStoreModesBitIdentical is the cross-backend oracle: on random
// graphs (connected and not), every read method of packed and lazy
// tables must agree with the dense table — including the RNG draw
// sequence of the randomized ones.
func TestStoreModesBitIdentical(t *testing.T) {
	for i := 0; i < 40; i++ {
		rng := rand.New(rand.NewSource(int64(i) * 7919))
		g := randomGraph(rng, 4+rng.Intn(40), rng.Intn(60))
		n := g.N()
		dense := NewTable(g)
		others := []*Table{
			NewTableOpts(g, TableOptions{Store: StorePacked}),
			NewTableOpts(g, TableOptions{Store: StoreLazy, MaxResident: 8}),
		}
		for _, tab := range others {
			var buf, wantBuf []int32
			for d := 0; d < n; d++ {
				for v := 0; v < n; v++ {
					if tab.HopDist(v, d) != dense.HopDist(v, d) {
						t.Fatalf("[%s] dist(%d,%d)=%d dense=%d", tab.Store(), v, d,
							tab.HopDist(v, d), dense.HopDist(v, d))
					}
					wantBuf = dense.NextHops(v, d, wantBuf[:0])
					buf = tab.NextHops(v, d, buf[:0])
					if len(buf) != len(wantBuf) {
						t.Fatalf("[%s] NextHops(%d,%d) = %v, dense %v", tab.Store(), v, d, buf, wantBuf)
					}
					for j := range buf {
						if buf[j] != wantBuf[j] {
							t.Fatalf("[%s] NextHops(%d,%d) = %v, dense %v", tab.Store(), v, d, buf, wantBuf)
						}
					}
					if tab.PathDiversity(v, d) != dense.PathDiversity(v, d) {
						t.Fatalf("[%s] PathDiversity(%d,%d) mismatch", tab.Store(), v, d)
					}
				}
			}
			// Identical RNG consumption: same seeds must yield the same
			// sampled hops and paths.
			r1 := rand.New(rand.NewSource(99))
			r2 := rand.New(rand.NewSource(99))
			for k := 0; k < 50; k++ {
				v, d := r1.Intn(n), r1.Intn(n)
				r2.Intn(n)
				r2.Intn(n)
				if h1, h2 := dense.NextHopRandom(v, d, r1), tab.NextHopRandom(v, d, r2); h1 != h2 {
					t.Fatalf("[%s] NextHopRandom(%d,%d) = %d, dense %d", tab.Store(), v, d, h2, h1)
				}
				p1 := dense.SamplePath(v, d, r1)
				p2 := tab.SamplePath(v, d, r2)
				if len(p1) != len(p2) {
					t.Fatalf("[%s] SamplePath(%d,%d) length %d, dense %d", tab.Store(), v, d, len(p2), len(p1))
				}
				for j := range p1 {
					if p1[j] != p2[j] {
						t.Fatalf("[%s] SamplePath(%d,%d) = %v, dense %v", tab.Store(), v, d, p2, p1)
					}
				}
			}
			if tab.Diameter() != dense.Diameter() {
				t.Fatalf("[%s] diameter %d, dense %d", tab.Store(), tab.Diameter(), dense.Diameter())
			}
		}
	}
}

func TestLazyWorkingSetBounded(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	n := inst.G.N()
	const wsCap = 16
	tab := NewTableOpts(inst.G, TableOptions{Store: StoreLazy, MaxResident: wsCap})
	if got := tab.ResidentShards(); got != 0 {
		t.Fatalf("fresh lazy table has %d resident shards, want 0", got)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4*n; i++ {
		v, d := rng.Intn(n), rng.Intn(n)
		if tab.HopDist(v, d) < 0 {
			t.Fatalf("unreachable pair in connected graph")
		}
		if got := tab.ResidentShards(); got > wsCap {
			t.Fatalf("working set %d exceeds cap %d", got, wsCap)
		}
	}
	if got := tab.ResidentShards(); got != wsCap {
		t.Fatalf("working set %d after touching all destinations, want full cap %d", got, wsCap)
	}
	// Memory accounting follows the working set, not n².
	dense := NewTable(inst.G)
	if lb, db := tab.MemoryBytes(), dense.MemoryBytes(); lb >= db {
		t.Fatalf("lazy table %d bytes not below dense %d", lb, db)
	}
}

// TestLazyRecencyKeepsHotRow pins the LRU discipline: a row touched
// after every miss epoch must survive a sweep of cold misses.
func TestLazyRecencyKeepsHotRow(t *testing.T) {
	n := 64
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	g := b.Build()
	tab := NewTableOpts(g, TableOptions{Store: StoreLazy, MaxResident: 4})
	const hot = 0
	tab.HopDist(1, hot)
	for d := 1; d < n; d++ {
		tab.HopDist(0, d)   // cold miss
		tab.HopDist(1, hot) // re-touch the hot row at the new epoch
	}
	if tab.lazy.rows[hot].Load() == nil {
		t.Fatal("hot row was evicted despite per-epoch touches")
	}
}

func TestPackedMemoryFootprint(t *testing.T) {
	inst := topo.MustLPS(11, 7) // diameter 3: nibble rows throughout
	dense := NewTable(inst.G)
	packed := NewTableOpts(inst.G, TableOptions{Store: StorePacked})
	db, pb := dense.MemoryBytes(), packed.MemoryBytes()
	if pb*6 > db {
		t.Fatalf("packed table %d bytes, not under 1/6 of dense %d", pb, db)
	}
	if packed.Store() != StorePacked || dense.Store() != StoreDense {
		t.Fatal("Store() misreports the backend")
	}
}

func TestTableConcurrentReadersNonDense(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	n := inst.G.N()
	for _, opts := range []TableOptions{
		{Store: StorePacked},
		{Store: StoreLazy, MaxResident: 12}, // far below n: concurrent miss + evict churn
	} {
		table := NewTableOpts(inst.G, opts)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < 500; i++ {
					src, dst := rng.Intn(n), rng.Intn(n)
					if table.HopDist(src, dst) < 0 {
						t.Errorf("unreachable pair %d->%d", src, dst)
						return
					}
					if src != dst && table.NextHopRandom(src, dst, rng) < 0 {
						t.Errorf("no next hop %d->%d", src, dst)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

func TestParseStoreRoundTrip(t *testing.T) {
	for _, s := range []Store{StoreDense, StorePacked, StoreLazy} {
		got, err := ParseStore(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStore(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStore("bogus"); err == nil {
		t.Error("ParseStore accepted a bogus name")
	}
}

func TestPolicyJSONRoundTrip(t *testing.T) {
	for _, p := range []Policy{Minimal, Valiant, UGALL} {
		if !p.Valid() {
			t.Errorf("%v reported invalid", p)
		}
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var back Policy
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != p {
			t.Errorf("round trip %v -> %s -> %v", p, data, back)
		}
	}
	var p Policy
	for _, name := range []string{"fastest", "ugal-g"} {
		err := p.UnmarshalText([]byte(name))
		if err == nil {
			t.Errorf("UnmarshalText accepted unknown policy %q", name)
		} else if !strings.Contains(err.Error(), "minimal, valiant or ugal-l") {
			t.Errorf("UnmarshalText(%q) error %q does not list the policies", name, err)
		}
	}
	for _, bad := range []Policy{-1, UGALL + 1} {
		if bad.Valid() {
			t.Errorf("%v reported valid", bad)
		}
	}
	// Struct-embedded round trip, as -json experiment rows carry it.
	type row struct{ Policy Policy }
	data, _ := json.Marshal(row{Policy: UGALL})
	var back row
	if err := json.Unmarshal(data, &back); err != nil || back.Policy != UGALL {
		t.Errorf("struct round trip via %s failed: %v", data, err)
	}
}

func benchTable(b *testing.B, opts TableOptions) *Table {
	b.Helper()
	inst := topo.MustLPS(23, 11)
	return NewTableOpts(inst.G, opts)
}

// BenchmarkHopDist compares the per-lookup cost of the three backends
// on the class-1 LPS instance — HopDist is the simulator's per-hop hot
// path, and the packed backend is budgeted at ≤15% over dense there
// (see BenchmarkRunLoadStore in internal/simnet for the in-situ
// number).
func BenchmarkHopDist(b *testing.B) {
	for _, opts := range []TableOptions{
		{Store: StoreDense},
		{Store: StorePacked},
		// Cap ≥ n: measures the steady-state (hit-path) cost; a sweep
		// cycling more destinations than the cap pays a BFS per miss
		// instead, which is the documented trade.
		{Store: StoreLazy, MaxResident: 1 << 20},
	} {
		b.Run(opts.Store.String(), func(b *testing.B) {
			tab := benchTable(b, opts)
			n := tab.G.N()
			var sink int32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += tab.HopDist(i%n, (i*31)%n)
			}
			_ = sink
		})
	}
}

func BenchmarkNextHopRandom(b *testing.B) {
	for _, opts := range []TableOptions{
		{Store: StoreDense},
		{Store: StorePacked},
	} {
		b.Run(opts.Store.String(), func(b *testing.B) {
			tab := benchTable(b, opts)
			n := tab.G.N()
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.NextHopRandom(i%n, (i*31)%n, rng)
			}
		})
	}
}

// BenchmarkTableMemory is the memory-regression gate: it reports the
// distance-store bytes of each backend on the class-1 LPS instance and
// fails outright if the packed store loses its ≥6× advantage over
// dense (nibble packing is nominally 8×; the slack absorbs row
// headers). CI runs it with -benchtime=1x.
func BenchmarkTableMemory(b *testing.B) {
	var denseBytes int64
	for _, opts := range []TableOptions{
		{Store: StoreDense},
		{Store: StorePacked},
	} {
		b.Run(opts.Store.String(), func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				tab := benchTable(b, opts)
				bytes = tab.MemoryBytes()
			}
			b.ReportMetric(float64(bytes), "table-bytes")
			if opts.Store == StoreDense {
				denseBytes = bytes
			} else if denseBytes > 0 && bytes*6 > denseBytes {
				b.Fatalf("memory regression: packed store %d bytes vs dense %d (< 6x cut)", bytes, denseBytes)
			}
		})
	}
}
