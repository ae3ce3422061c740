package graph

import (
	"runtime"
	"sync"
)

// betweennessBlocks caps the number of contiguous source blocks the
// Brandes fan-outs split their sources into. It is a constant, not a
// function of GOMAXPROCS: each block is summed in source order and the
// block partials are folded in block order, so the floating-point
// rounding — and therefore every centrality score — is bit-identical
// on any machine. Graphs with at most this many vertices get one
// source per block, which reproduces the serial summation exactly.
const betweennessBlocks = 256

// sourceFold schedules a Brandes fan-out in a fixed order: sources
// split into at most betweennessBlocks contiguous blocks, workers claim
// blocks in increasing order, and a worker folds its finished block
// into out only once every earlier block is folded.
type sourceFold struct {
	n, blocks int
	out       []float64
	mu        sync.Mutex
	turn      sync.Cond
	next      int // next unclaimed block
	folded    int // blocks folded into out so far
}

// claim hands out the next block's source range [lo, hi).
func (f *sourceFold) claim() (blk, lo, hi int, ok bool) {
	f.mu.Lock()
	blk = f.next
	f.next++
	f.mu.Unlock()
	if blk >= f.blocks {
		return 0, 0, 0, false
	}
	return blk, blk * f.n / f.blocks, (blk + 1) * f.n / f.blocks, true
}

// fold adds block blk's partial to out once every earlier block is in.
func (f *sourceFold) fold(blk int, acc []float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.folded != blk {
		f.turn.Wait()
	}
	for i, x := range acc {
		f.out[i] += x
	}
	f.folded++
	f.turn.Broadcast()
}

// foldSources runs worker on min(GOMAXPROCS, blocks) goroutines and
// returns the length-size sum of their folded block partials. Each
// worker owns one partial buffer, so at most GOMAXPROCS partials are
// live.
func (g *Graph) foldSources(size int, worker func(f *sourceFold)) []float64 {
	f := &sourceFold{n: g.N(), blocks: min(g.N(), betweennessBlocks), out: make([]float64, size)}
	f.turn.L = &f.mu
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), f.blocks); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(f)
		}()
	}
	wg.Wait()
	return f.out
}

// BetweennessCentrality computes exact unweighted vertex betweenness
// via Brandes' algorithm, parallelized over source vertices. §V of the
// SpectralFly paper motivates non-minimal routing by exactly this
// quantity: routers with high betweenness sit on many shortest paths
// and become bottlenecks in saturated networks, so a topology with a
// flatter betweenness profile (like an expander) suffers less.
//
// The returned scores count ordered source-target pairs (the
// conventional unnormalized definition halves this for undirected
// graphs; callers comparing topologies can use either consistently).
// They are bit-identical for every GOMAXPROCS (see sourceFold).
func (g *Graph) BetweennessCentrality() []float64 {
	n := g.N()
	return g.foldSources(n, func(f *sourceFold) {
		bc := make([]float64, n)
		// Brandes working state, reused across sources. The BFS queue
		// doubles as the stack of the dependency phase.
		preds := make([][]int32, n)
		sigma := make([]float64, n)
		dist := make([]int32, n)
		delta := make([]float64, n)
		queue := make([]int32, n)
		for {
			blk, lo, hi, ok := f.claim()
			if !ok {
				return
			}
			clear(bc)
			for s := lo; s < hi; s++ {
				for i := 0; i < n; i++ {
					preds[i] = preds[i][:0]
					sigma[i] = 0
					dist[i] = -1
					delta[i] = 0
				}
				sigma[s] = 1
				dist[s] = 0
				queue[0] = int32(s)
				tail := 1
				for head := 0; head < tail; head++ {
					v := queue[head]
					for _, u := range g.Neighbors(int(v)) {
						if dist[u] < 0 {
							dist[u] = dist[v] + 1
							queue[tail] = u
							tail++
						}
						if dist[u] == dist[v]+1 {
							sigma[u] += sigma[v]
							preds[u] = append(preds[u], v)
						}
					}
				}
				for i := tail - 1; i > 0; i-- {
					w := queue[i]
					for _, u := range preds[w] {
						delta[u] += sigma[u] / sigma[w] * (1 + delta[w])
					}
					bc[w] += delta[w]
				}
			}
			f.fold(blk, bc)
		}
	})
}

// EdgeBetweennessCentrality computes exact unweighted edge betweenness
// (Brandes' accumulation applied to edges), returned aligned with
// Edges(). For group-structured topologies like DragonFly the global
// links concentrate shortest paths — the §V bottleneck — while
// expander links stay near-uniform. Like BetweennessCentrality, the
// scores are bit-identical for every GOMAXPROCS.
func (g *Graph) EdgeBetweennessCentrality() []float64 {
	n := g.N()
	// Accumulate per directed CSR slot, then fold to undirected edges.
	// The dependency phase rescans each vertex's neighbors for its
	// shortest-path predecessors (those one step closer to the source)
	// instead of storing them, so the dependency of edge u→w lands in
	// w's own slot w→u. The fold below adds both slots of an edge, and
	// float addition is commutative, so which direction a slot stands
	// for does not change the sum.
	folded := g.foldSources(len(g.neigh), func(f *sourceFold) {
		eb := make([]float64, len(g.neigh))
		sigma := make([]float64, n)
		dist := make([]int32, n)
		delta := make([]float64, n)
		queue := make([]int32, n)
		for {
			blk, lo, hi, ok := f.claim()
			if !ok {
				return
			}
			clear(eb)
			for s := lo; s < hi; s++ {
				for i := 0; i < n; i++ {
					sigma[i] = 0
					dist[i] = -1
					delta[i] = 0
				}
				sigma[s] = 1
				dist[s] = 0
				queue[0] = int32(s)
				tail := 1
				for head := 0; head < tail; head++ {
					v := queue[head]
					for _, u := range g.Neighbors(int(v)) {
						if dist[u] < 0 {
							dist[u] = dist[v] + 1
							queue[tail] = u
							tail++
						}
						if dist[u] == dist[v]+1 {
							sigma[u] += sigma[v]
						}
					}
				}
				for i := tail - 1; i > 0; i-- {
					w := queue[i]
					for j := g.offsets[w]; j < g.offsets[w+1]; j++ {
						if u := g.neigh[j]; dist[u] == dist[w]-1 {
							c := sigma[u] / sigma[w] * (1 + delta[w])
							delta[u] += c
							eb[j] += c
						}
					}
				}
			}
			f.fold(blk, eb)
		}
	})
	edges := g.Edges()
	index := make(map[[2]int32]int, len(edges))
	for i, e := range edges {
		index[e] = i
	}
	out := make([]float64, len(edges))
	for v := 0; v < n; v++ {
		for i := g.offsets[v]; i < g.offsets[v+1]; i++ {
			u := g.neigh[i]
			key := [2]int32{int32(v), u}
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			out[index[key]] += folded[i]
		}
	}
	return out
}

// EdgeBetweenness returns the max/mean/ratio profile of edge
// betweenness.
func (g *Graph) EdgeBetweenness() BetweennessProfile {
	eb := g.EdgeBetweennessCentrality()
	var p BetweennessProfile
	if len(eb) == 0 {
		return p
	}
	for _, x := range eb {
		if x > p.Max {
			p.Max = x
		}
		p.Mean += x
	}
	p.Mean /= float64(len(eb))
	if p.Mean > 0 {
		p.Ratio = p.Max / p.Mean
	}
	return p
}

// BetweennessProfile summarizes a centrality vector for topology
// comparison: max, mean, and the max/mean ratio ("bottleneck factor";
// 1.0 means perfectly flat, as in a vertex-transitive graph).
type BetweennessProfile struct {
	Max, Mean, Ratio float64
}

// Betweenness computes the profile directly.
func (g *Graph) Betweenness() BetweennessProfile {
	bc := g.BetweennessCentrality()
	var p BetweennessProfile
	if len(bc) == 0 {
		return p
	}
	for _, x := range bc {
		if x > p.Max {
			p.Max = x
		}
		p.Mean += x
	}
	p.Mean /= float64(len(bc))
	if p.Mean > 0 {
		p.Ratio = p.Max / p.Mean
	}
	return p
}
