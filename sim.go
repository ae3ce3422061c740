package spectralfly

import (
	"math/rand"

	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/traffic"
)

// Routing policies (§V).
const (
	// RoutingMinimal forwards along uniformly random shortest paths.
	RoutingMinimal = routing.Minimal
	// RoutingValiant routes via a random intermediate router.
	RoutingValiant = routing.Valiant
	// RoutingUGAL chooses adaptively using local queue state (UGAL-L).
	RoutingUGAL = routing.UGALL
)

// Traffic patterns (§VI-C).
const (
	PatternRandom     = traffic.Random
	PatternShuffle    = traffic.BitShuffle
	PatternReverse    = traffic.BitReverse
	PatternTranspose  = traffic.Transpose
	PatternComplement = traffic.BitComplement
)

// TableOptions selects the storage backend of the all-pairs routing
// oracle built for a simulation (or a sweep): dense int32 vectors,
// packed 4-bit shards (~8× smaller), or lazy on-demand shards under a
// bounded working set. All backends produce bit-identical routes; see
// DESIGN.md §7 for the memory model.
type TableOptions = routing.TableOptions

// Routing-table storage backends (TableOptions.Store).
const (
	// StoreDense keeps one int32 vector per destination (the default).
	StoreDense = routing.StoreDense
	// StorePacked packs distances into 4-bit nibbles, ~8× smaller.
	StorePacked = routing.StorePacked
	// StoreLazy materializes packed rows on demand under an LRU bound.
	StoreLazy = routing.StoreLazy
)

// SimConfig configures a simulation of a Network.
type SimConfig struct {
	// Concentration is the number of endpoints per router (default 1).
	Concentration int
	// Policy is the routing algorithm (default RoutingMinimal).
	Policy routing.Policy
	// PacketFlits, RouterLatency, LinkLatency override the model
	// defaults (16 / 5 / 10 cycles).
	PacketFlits   int64
	RouterLatency int64
	LinkLatency   int64
	// Seed drives all randomness.
	Seed int64
	// Table selects the routing-table storage backend (the zero value
	// is the dense store, matching routing.TableOptions).
	Table TableOptions
	// Workers splits every run into that many router shards simulated
	// in parallel (0 and 1: one shard, on the calling goroutine).
	// Results are identical for every value — event order and routing
	// randomness derive from canonical message identities — so Workers
	// only trades wall-clock time for cores. Tiny topologies (fewer than
	// four routers per shard) run on fewer shards. See DESIGN.md §10.
	Workers int
}

// SimStats re-exports the simulator statistics.
type SimStats = simnet.Stats

// Sim is a ready-to-run simulation of one network.
type Sim struct {
	net   *Network
	cfg   SimConfig
	table *routing.Table
	nw    *simnet.Network
}

// Simulate prepares a simulator for the network, building the routing
// table once with the storage backend selected by cfg.Table; reuse the
// Sim for multiple runs. Invalid configurations (an unknown policy, a
// dead-router mask that does not match the graph) surface as errors.
func (n *Network) Simulate(cfg SimConfig) (*Sim, error) {
	table := routing.NewTableOpts(n.G, cfg.Table)
	nw, err := simnet.New(simnet.Config{
		Topo:          n.G,
		Concentration: cfg.Concentration,
		PacketFlits:   cfg.PacketFlits,
		RouterLatency: cfg.RouterLatency,
		LinkLatency:   cfg.LinkLatency,
		DeadRouters:   n.failedRouters,
		Policy:        cfg.Policy,
		Seed:          cfg.Seed,
		Workers:       cfg.Workers,
	}, table)
	if err != nil {
		return nil, err
	}
	return &Sim{net: n, cfg: cfg, table: table, nw: nw}, nil
}

// Endpoints returns the number of simulated endpoints.
func (s *Sim) Endpoints() int { return s.nw.Endpoints() }

// Diameter returns the network diameter from the routing table.
func (s *Sim) Diameter() int { return s.table.Diameter() }

// VirtualChannels returns the deadlock-free VC budget for the
// configured policy (§V-A).
func (s *Sim) VirtualChannels() int {
	return routing.VirtualChannels(s.cfg.Policy, s.table.Diameter())
}

// RunUniform injects uniform random traffic at the offered load with
// msgsPerEP messages per endpoint and returns the run statistics.
func (s *Sim) RunUniform(load float64, msgsPerEP int) SimStats {
	nep := s.nw.Endpoints()
	return s.nw.RunLoad(func(src int, rng *rand.Rand) int {
		return rng.Intn(nep)
	}, load, msgsPerEP)
}

// SaturationLoad estimates the offered load at which uniform traffic
// saturates (mean latency exceeding latencyFactor × the light-load
// baseline), per §VI-C's "at or beyond 70% of network capacity"
// observation.
func (s *Sim) SaturationLoad(msgsPerEP int, latencyFactor float64) float64 {
	nep := s.nw.Endpoints()
	return s.nw.SaturationLoad(func(src int, rng *rand.Rand) int {
		return rng.Intn(nep)
	}, msgsPerEP, latencyFactor, 0)
}

// RunPattern injects one of the §VI-C synthetic patterns over a
// power-of-two rank space mapped onto the endpoints.
func (s *Sim) RunPattern(pat traffic.Pattern, ranks int, load float64, msgsPerRank int) (SimStats, error) {
	mp, err := traffic.NewMapping(ranks, s.nw.Endpoints(), s.cfg.Seed)
	if err != nil {
		return SimStats{}, err
	}
	return s.nw.RunLoad(mp.PatternEndpoints(pat, ranks), load, msgsPerRank), nil
}

// RunUniformSweep measures uniform random traffic at every offered
// load concurrently over a GOMAXPROCS-bounded worker pool: each load
// runs on its own clone of the simulator (sharing the routing table
// and port maps read-only), and the stats come back in load order.
// Results are identical to calling RunUniform serially for each load.
func (s *Sim) RunUniformSweep(loads []float64, msgsPerEP int) []SimStats {
	out := make([]SimStats, len(loads))
	tasks := make([]func() error, len(loads))
	for i, load := range loads {
		tasks[i] = func() error {
			nw := s.nw.Clone()
			nep := nw.Endpoints()
			out[i] = nw.RunLoad(func(src int, rng *rand.Rand) int {
				return rng.Intn(nep)
			}, load, msgsPerEP)
			return nil
		}
	}
	_ = runner.Do(0, tasks...) // tasks are infallible
	return out
}

// RunMotif executes an Ember-style motif (§VI-D) over a rank space
// mapped onto the endpoints and returns aggregate statistics; the
// makespan is the paper's comparison metric.
func (s *Sim) RunMotif(m traffic.Motif, ranks int) (SimStats, error) {
	if err := traffic.Validate(m, ranks); err != nil {
		return SimStats{}, err
	}
	mp, err := traffic.NewMapping(ranks, s.nw.Endpoints(), s.cfg.Seed)
	if err != nil {
		return SimStats{}, err
	}
	return s.nw.RunBatches(traffic.MapRounds(m, mp))
}

// Motif constructors (re-exported from internal/traffic).
type (
	// Halo3D26 is the 26-neighbor stencil halo exchange.
	Halo3D26 = traffic.Halo3D26
	// Sweep3D is the diagonal wavefront sweep.
	Sweep3D = traffic.Sweep3D
	// FFT is the sub-communicator all-to-all (balanced/unbalanced).
	FFT = traffic.FFT
)
