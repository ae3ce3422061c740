package traffic

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/runner"
	"repro/internal/simnet"
)

// Multi-tenant workloads: a Tenants value describes several
// co-scheduled jobs — each a synthetic pattern or a motif over its own
// rank space — placed on disjoint endpoint sets by a placement policy.
// Place materializes the allocation for a concrete topology; the
// resulting Assignment translates to the simulator's combined pattern
// function, per-tenant load table (simnet.TenantConfig) and merged
// motif rounds. See DESIGN.md §12.

// PlacementPolicy selects how tenants' endpoint allocations are carved
// out of the machine.
type PlacementPolicy int

const (
	// PlaceSequential packs tenants into consecutive endpoint ranges in
	// topology order — the fragmentation-free baseline.
	PlaceSequential PlacementPolicy = iota
	// PlaceRandom draws each tenant's endpoints uniformly from the
	// remaining free pool (the paper's random node allocation, per
	// tenant), maximizing fragmentation.
	PlaceRandom
	// PlaceClustered allocates each tenant inside its own KWay
	// partition of the router graph, so tenants occupy low-cut regions
	// and cross-tenant link sharing is minimized.
	PlaceClustered
)

func (p PlacementPolicy) String() string {
	switch p {
	case PlaceSequential:
		return "sequential"
	case PlaceRandom:
		return "random"
	case PlaceClustered:
		return "clustered"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// MarshalText renders the policy name for JSON output and specs.
func (p PlacementPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a policy name, accepting exactly the forms
// MarshalText emits.
func (p *PlacementPolicy) UnmarshalText(text []byte) error {
	switch string(text) {
	case "sequential":
		*p = PlaceSequential
	case "random":
		*p = PlaceRandom
	case "clustered":
		*p = PlaceClustered
	default:
		return fmt.Errorf("traffic: unknown placement policy %q (want sequential, random or clustered)", text)
	}
	return nil
}

// TenantSpec describes one co-scheduled job.
type TenantSpec struct {
	// Name labels the tenant in reports ("victim", "aggressor", ...).
	Name string
	// Pattern is the tenant's synthetic workload over its own rank
	// space (used by the streaming RunLoad path).
	Pattern Pattern
	// Motif, when non-nil, makes this a motif job contributing rounds
	// to Assignment.Rounds instead of streamed pattern traffic.
	Motif Motif
	// Ranks is the tenant's job size in ranks (= endpoints allocated).
	Ranks int
	// Load is the tenant's offered load as a fraction of endpoint
	// injection bandwidth; 0 defers to the caller's default (the sweep
	// engine substitutes the cell's load axis value).
	Load float64
}

// Tenants is the declarative multi-tenant workload: the job list, the
// placement policy carving their endpoint sets, and the seed driving
// every randomized placement choice.
type Tenants struct {
	Specs  []TenantSpec
	Policy PlacementPolicy
	Seed   int64
}

// Validate checks the spec list against a machine size.
func (ts Tenants) Validate(totalEP int) error {
	if len(ts.Specs) == 0 {
		return fmt.Errorf("traffic: tenant set is empty")
	}
	sum := 0
	for i, sp := range ts.Specs {
		if sp.Ranks <= 0 {
			return fmt.Errorf("traffic: tenant %d (%s) has %d ranks", i, sp.Name, sp.Ranks)
		}
		if sp.Motif == nil && sp.Pattern != Random && !PowerOfTwo(sp.Ranks) {
			return fmt.Errorf("traffic: tenant %d (%s) pattern %s needs a power-of-two rank count, got %d", i, sp.Name, sp.Pattern, sp.Ranks)
		}
		if sp.Load < 0 || sp.Load > 1 {
			return fmt.Errorf("traffic: tenant %d (%s) load %v out of [0,1]", i, sp.Name, sp.Load)
		}
		sum += sp.Ranks
	}
	if sum > totalEP {
		return fmt.Errorf("traffic: tenants need %d endpoints, machine has %d", sum, totalEP)
	}
	return nil
}

// Assignment is a materialized tenant placement on a concrete
// topology: disjoint per-tenant endpoint lists in rank order plus the
// inverse maps the simulator's pattern closure reads per message.
type Assignment struct {
	Specs []TenantSpec
	// EPOf[t][rank] is the endpoint holding tenant t's rank.
	EPOf [][]int32
	// OfEP[ep] is the tenant owning endpoint ep, or -1.
	OfEP []int32
	// rankOf[ep] is ep's rank within its tenant (-1 when unowned).
	rankOf []int32
}

// Place materializes the tenant set on a topology (g's routers ×
// concentration endpoints), carving disjoint endpoint sets per the
// policy. Placement is deterministic in (Specs, Policy, Seed, g):
// sequential packs ranges in order; random draws each tenant's
// endpoints from the remaining pool with the tenant's derived seed;
// clustered allocates inside partition.KWay parts of the router graph
// (spilling into the nearest free endpoints when a part is too
// small). Within every allocation, ranks are placed sequentially in
// topology order — the same discipline as Mapping.
func (ts Tenants) Place(g *graph.Graph, concentration int) (*Assignment, error) {
	if concentration <= 0 {
		concentration = 1
	}
	totalEP := g.N() * concentration
	if err := ts.Validate(totalEP); err != nil {
		return nil, err
	}
	k := len(ts.Specs)
	a := &Assignment{
		Specs:  ts.Specs,
		EPOf:   make([][]int32, k),
		OfEP:   make([]int32, totalEP),
		rankOf: make([]int32, totalEP),
	}
	for ep := range a.OfEP {
		a.OfEP[ep] = -1
		a.rankOf[ep] = -1
	}
	used := make([]bool, totalEP)
	claim := func(t int, eps []int32) {
		sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
		a.EPOf[t] = eps
		for r, ep := range eps {
			used[ep] = true
			a.OfEP[ep] = int32(t)
			a.rankOf[ep] = int32(r)
		}
	}

	switch ts.Policy {
	case PlaceSequential:
		next := int32(0)
		for t, sp := range ts.Specs {
			eps := make([]int32, sp.Ranks)
			for i := range eps {
				eps[i] = next
				next++
			}
			claim(t, eps)
		}
	case PlaceRandom:
		pool := make([]int32, totalEP)
		for i := range pool {
			pool[i] = int32(i)
		}
		for t, sp := range ts.Specs {
			// A private RNG per tenant id, seeded from a stable per-tenant
			// key: tenant t's draws depend on the pool the earlier tenants
			// left behind but never on the tenants after it, so extending
			// the tenant list cannot reshuffle existing allocations.
			rng := rand.New(rand.NewSource(runner.DeriveSeed(ts.Seed, fmt.Sprintf("tenant/%d", t))))
			eps := make([]int32, sp.Ranks)
			for i := range eps {
				j := rng.Intn(len(pool))
				eps[i] = pool[j]
				pool[j] = pool[len(pool)-1]
				pool = pool[:len(pool)-1]
			}
			claim(t, eps)
		}
	case PlaceClustered:
		parts := partition.KWay(g, k, partition.Options{Seed: ts.Seed, Trials: 2})
		for t, sp := range ts.Specs {
			eps := make([]int32, 0, sp.Ranks)
			for r := 0; r < g.N() && len(eps) < sp.Ranks; r++ {
				if int(parts[r]) != t {
					continue
				}
				for c := 0; c < concentration && len(eps) < sp.Ranks; c++ {
					ep := int32(r*concentration + c)
					if !used[ep] {
						eps = append(eps, ep)
						used[ep] = true
					}
				}
			}
			// Spill: an undersized part borrows the lowest free endpoints.
			for ep := int32(0); int(ep) < totalEP && len(eps) < sp.Ranks; ep++ {
				if !used[ep] {
					eps = append(eps, ep)
					used[ep] = true
				}
			}
			claim(t, eps)
		}
	default:
		return nil, fmt.Errorf("traffic: unknown placement policy %d", ts.Policy)
	}
	return a, nil
}

// Pattern returns the combined simnet.PatternFunc of the tenant set:
// each source endpoint draws a destination rank from its own tenant's
// pattern over that tenant's rank space and sends to the endpoint
// holding it; endpoints no tenant owns — and endpoints of motif
// tenants, whose traffic goes through Rounds — emit nothing (-1).
func (a *Assignment) Pattern() simnet.PatternFunc {
	return func(srcEP int, rng *rand.Rand) int {
		t := a.OfEP[srcEP]
		if t < 0 || a.Specs[t].Motif != nil {
			return -1
		}
		eps := a.EPOf[t]
		dst := a.Specs[t].Pattern.Dest(int(a.rankOf[srcEP]), len(eps), rng)
		return int(eps[dst])
	}
}

// Config builds the simulator's tenant table: the endpoint-to-tenant
// map plus each tenant's offered load, with zero-load specs resolved
// to defaultLoad (the run's load axis value).
func (a *Assignment) Config(defaultLoad float64) (*simnet.TenantConfig, error) {
	loads := make([]float64, len(a.Specs))
	for t, sp := range a.Specs {
		l := sp.Load
		if l == 0 {
			l = defaultLoad
		}
		if l <= 0 || l > 1 {
			return nil, fmt.Errorf("traffic: tenant %d (%s) resolved load %v out of (0,1]", t, sp.Name, l)
		}
		loads[t] = l
	}
	return &simnet.TenantConfig{OfEP: a.OfEP, Load: loads}, nil
}

// Rounds merges the motif tenants' communication rounds into one
// batch schedule: round i is the concatenation, in tenant order, of
// every motif tenant's round i mapped onto its endpoint allocation
// (shorter motifs simply finish early). Pattern tenants contribute
// nothing here — their traffic streams through Pattern.
func (a *Assignment) Rounds() [][]simnet.Message {
	var out [][]simnet.Message
	for t, sp := range a.Specs {
		if sp.Motif == nil {
			continue
		}
		eps := a.EPOf[t]
		for i, round := range sp.Motif.Rounds() {
			for len(out) <= i {
				out = append(out, nil)
			}
			for _, m := range round {
				if int(m[0]) >= len(eps) || int(m[1]) >= len(eps) || m[0] < 0 || m[1] < 0 {
					continue // rank outside the tenant's job size
				}
				out[i] = append(out[i], simnet.Message{SrcEP: int(eps[m[0]]), DstEP: int(eps[m[1]])})
			}
		}
	}
	return out
}
