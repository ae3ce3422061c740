package graph

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func approxF(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %v want %v", msg, got, want)
	}
}

func TestBetweennessPathGraph(t *testing.T) {
	// Path 0-1-2: vertex 1 lies on the single shortest path between 0
	// and 2 in both directions → bc[1] = 2 (ordered pairs).
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	bc := b.Build().BetweennessCentrality()
	approxF(t, bc[0], 0, 1e-12, "bc[0]")
	approxF(t, bc[1], 2, 1e-12, "bc[1]")
	approxF(t, bc[2], 0, 1e-12, "bc[2]")
}

func TestBetweennessStar(t *testing.T) {
	// Star K_{1,4}: hub on all 4·3 = 12 ordered leaf pairs.
	b := NewBuilder(5)
	for leaf := 1; leaf < 5; leaf++ {
		b.AddEdge(0, leaf)
	}
	bc := b.Build().BetweennessCentrality()
	approxF(t, bc[0], 12, 1e-12, "hub betweenness")
	for leaf := 1; leaf < 5; leaf++ {
		approxF(t, bc[leaf], 0, 1e-12, "leaf betweenness")
	}
}

func TestBetweennessCycleUniform(t *testing.T) {
	// Vertex-transitive: all scores equal.
	g := ring(9)
	bc := g.BetweennessCentrality()
	for v := 1; v < 9; v++ {
		approxF(t, bc[v], bc[0], 1e-9, "cycle uniformity")
	}
	p := g.Betweenness()
	approxF(t, p.Ratio, 1, 1e-9, "cycle bottleneck factor")
}

func TestBetweennessSplitPaths(t *testing.T) {
	// C4 (0-1-2-3-0): pairs (0,2) and (1,3) each have two shortest
	// paths, so each intermediate vertex gets 1/2 per direction = 1.
	bc := ring(4).BetweennessCentrality()
	for v := 0; v < 4; v++ {
		approxF(t, bc[v], 1, 1e-12, "C4 split credit")
	}
}

func TestBetweennessCompleteGraphZero(t *testing.T) {
	bc := complete(6).BetweennessCentrality()
	for v, x := range bc {
		approxF(t, x, 0, 1e-12, "K6 bc should be 0")
		_ = v
	}
}

func TestBetweennessSumIdentity(t *testing.T) {
	// Sum over vertices of bc = sum over ordered pairs (s,t) of
	// (number of intermediate vertices on shortest paths, weighted) =
	// sum over pairs of (d(s,t) - 1) when shortest paths are unique.
	// Use a tree (unique paths): star with tails.
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 3)
	b.AddEdge(3, 4)
	b.AddEdge(0, 5)
	b.AddEdge(5, 6)
	g := b.Build()
	bc := g.BetweennessCentrality()
	var sum float64
	for _, x := range bc {
		sum += x
	}
	st := g.AllPairsStats()
	pairs := float64(g.N() * (g.N() - 1))
	wantSum := st.AvgDist*pairs - pairs
	approxF(t, sum, wantSum, 1e-9, "Brandes sum identity on tree")
}

func TestBetweennessDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	bc := b.Build().BetweennessCentrality()
	for _, x := range bc {
		approxF(t, x, 0, 1e-12, "disconnected pairs contribute nothing")
	}
}

// TestBetweennessGOMAXPROCSInvariant pins the fixed-order fan-out:
// vertex and edge betweenness are bit-identical at every GOMAXPROCS,
// both on a graph small enough for one source per block and on one
// large enough that blocks hold several sources.
func TestBetweennessGOMAXPROCSInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{120, 700} {
		rng := rand.New(rand.NewSource(int64(n)))
		b := NewBuilder(n)
		for v := 0; v < n; v++ {
			b.AddEdge(v, (v+1)%n) // a ring keeps the graph connected
			for k := 0; k < 3; k++ {
				if u := rng.Intn(n); u != v {
					b.AddEdge(v, u)
				}
			}
		}
		g := b.Build()
		var refV, refE []float64
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			bc, eb := g.BetweennessCentrality(), g.EdgeBetweennessCentrality()
			if refV == nil {
				refV, refE = bc, eb
				continue
			}
			for v := range bc {
				if math.Float64bits(bc[v]) != math.Float64bits(refV[v]) {
					t.Fatalf("n=%d GOMAXPROCS=%d: vertex %d betweenness %v, want %v", n, procs, v, bc[v], refV[v])
				}
			}
			for e := range eb {
				if math.Float64bits(eb[e]) != math.Float64bits(refE[e]) {
					t.Fatalf("n=%d GOMAXPROCS=%d: edge %d betweenness %v, want %v", n, procs, e, eb[e], refE[e])
				}
			}
		}
	}
}
