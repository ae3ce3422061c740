package simnet

import (
	"math"
	"math/rand"
	"slices"
)

// splitmix64 is a tiny deterministic rand.Source64 (Steele et al.'s
// SplitMix64 finalizer). Every endpoint generator carries one, so the
// streaming run loop can hold nep independent Poisson/pattern streams
// in two words of state each instead of nep copies of math/rand's
// ~5 KB lagged-Fibonacci state — and so one endpoint's draw count can
// never perturb another endpoint's stream.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

// mix64 is the SplitMix64 finalizer: a full-avalanche scramble shared
// by the generator and the seed derivation.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// mixSeed derives the lane'th stream state from a run seed: one
// SplitMix64 scramble over the combined words, so sequential seeds and
// lanes land on uncorrelated states.
func mixSeed(seed, lane int64) uint64 {
	return mix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(lane) + 1)
}

// epGen is one endpoint's streaming injection cursor: a private RNG
// (gap and destination draws), the continuous Poisson arrival clock,
// and the count of messages still to generate. Each endpoint keeps
// exactly one pending injection event in the scheduler, so queued
// injections cost O(endpoints), not O(endpoints × msgsPerEP).
type epGen struct {
	src  splitmix64
	rng  *rand.Rand // wraps &src; allocated once per Network
	t    float64    // continuous arrival clock (fractional carry)
	left int        // messages still to generate
}

// next advances the continuous Poisson clock by one exponential gap
// and returns the arrival cycle, rounded to nearest. Keeping t in
// float64 carries the fractional remainder across messages, so the
// realized mean inter-arrival gap matches PacketFlits/load instead of
// being biased low by per-message truncation.
func (g *epGen) next(meanGap float64) int64 {
	g.t += g.rng.ExpFloat64() * meanGap
	return int64(g.t + 0.5)
}

// latDigest is the exact latency statistic behind MeanLatency and
// P99Latency: a count per integer latency (in cycles), grown on demand
// to the largest latency seen, plus the exact count and sum. Digests
// fold by summation, so the statistics of any partition of a run's
// deliveries — per shard, per tenant — combine into exactly the
// statistics of the whole, and the quantile is the exact nearest-rank
// quantile over every delivery. Memory is O(largest latency), not
// O(deliveries).
type latDigest struct {
	counts []int64 // counts[v] = deliveries with latency v; entries past len are zero
	count  int64
	sum    int64
}

// reset empties the digest, keeping its capacity.
func (d *latDigest) reset() {
	clear(d.counts)
	d.counts = d.counts[:0]
	d.count, d.sum = 0, 0
}

func (d *latDigest) add(v int64) {
	if v >= int64(len(d.counts)) {
		d.grow(v + 1)
	}
	d.counts[v]++
	d.count++
	d.sum += v
}

// grow extends counts to length n. Capacity past len is kept zero
// (reset clears what it releases, and fresh backing arrays are
// zeroed), so extending within capacity needs no clearing.
func (d *latDigest) grow(n int64) {
	d.counts = slices.Grow(d.counts, int(n)-len(d.counts))[:n]
}

// merge adds every delivery of o to d.
func (d *latDigest) merge(o *latDigest) {
	if len(o.counts) > len(d.counts) {
		d.grow(int64(len(o.counts)))
	}
	for v, c := range o.counts {
		d.counts[v] += c
	}
	d.count += o.count
	d.sum += o.sum
}

// mean returns the exact mean latency (0 when empty).
func (d *latDigest) mean() float64 {
	if d.count == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.count)
}

// quantile returns the nearest-rank p-quantile — the ⌈p·n⌉-th smallest
// latency — or 0 when empty (a run that delivered nothing has no tail
// to report). Nearest rank never reports below the requested quantile.
func (d *latDigest) quantile(p float64) int64 {
	if d.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(d.count)))
	rank = min(max(rank, 1), d.count)
	var cum int64
	for v, c := range d.counts {
		if cum += c; cum >= rank {
			return int64(v)
		}
	}
	return int64(len(d.counts) - 1)
}

// memoryBytes reports the digest's footprint (length-based, like the
// rest of the MemoryBytes accounting).
func (d *latDigest) memoryBytes() int64 {
	return int64(len(d.counts)) * 8
}
