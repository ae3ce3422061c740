package main

import (
	"fmt"
	"math/rand"
	"time"

	spectralfly "repro"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/traffic"
)

// simLoad drives packet simulation on one class-1 SpectralFly network.
// Why: simnet and the routing next-hop lookups do almost all the work.
// At 660 routers the dense routing table (1.7 MB) just fits a 2 MB
// per-core L2 next to the simulator state, while the packed one
// (0.2 MB) fits easily, so table store, engine and policy choices show
// without the run depending on L3 and memory latency, which drift by a
// quarter between runs on a shared host (measured on LPS(53,17)).
var simLoad = workload{
	name: "sim-load",
	why: "simulation of LPS(23,11) with 1320 endpoints: next-hop lookups dominate, with the dense table at the " +
		"size of L2 and the packed one inside it, so store, engine and policy show",
	stages:  [2]string{"open-loop streams (sim_hops_per_s)", "Ember motifs (motif_hops_per_s)"},
	setup:   setupSimLoad,
	heldOut: heldOutSimLoad,
}

const (
	simP, simQ    = 23, 11 // LPS(23,11): 660 routers of radix 24
	simConc       = 2      // 1320 endpoints
	simLoadFactor = 0.5    // offered load of every stream
	simMsgs       = 48     // messages per endpoint (uniform) or per rank (pattern)
	simRanks      = 1024   // power-of-two rank space of the permutation pattern and motifs
)

var (
	simPattern = traffic.BitShuffle
	// The three Ember motifs of §VI-D, sized to 1024 ranks.
	simMotifs = []traffic.Motif{
		traffic.Halo3D26{NX: 16, NY: 8, NZ: 8, Iters: 12},
		traffic.FFT{NX: 8, NY: 8, NZ: 16, Iters: 12},
		traffic.Sweep3D{PX: 32, PY: 32, Sweeps: 24},
	}
)

// stream is one open-loop configuration of the façade simulator.
type stream struct {
	engine, policy, store string
	sim                   *spectralfly.Sim
}

func (s stream) tag() string { return s.engine + "." + s.policy + "." + s.store }

type simLoadState struct {
	seed    int64
	net     *spectralfly.Network
	streams []stream
	motifNW *simnet.Network
}

func setupSimLoad(b *bench) (state, error) {
	s := &simLoadState{seed: b.seed}
	var err error
	b.sample("topo.build_s", b.timed("topo.build", 0, func() { s.net, err = spectralfly.LPS(simP, simQ) }).Seconds())
	if err != nil {
		return nil, err
	}
	var dense, packed *routing.Table
	for _, st := range []struct {
		name  string
		store routing.Store
		out   **routing.Table
	}{{"dense", routing.StoreDense, &dense}, {"packed", routing.StorePacked, &packed}} {
		d := b.timed("routing.build", 0, func() { *st.out = routing.NewTableOpts(s.net.G, routing.TableOptions{Store: st.store}) })
		b.sample("routing.build_s."+st.name, d.Seconds())
		b.sample("routing.table_mb."+st.name, float64((*st.out).MemoryBytes())/(1<<20))
	}
	checkStoresAgree(b, dense, packed, s.seed)

	b.timed("simnet.new", 0, func() {
		s.motifNW, err = simnet.New(simnet.Config{Topo: s.net.G, Concentration: simConc, Policy: routing.Minimal, Seed: s.seed}, dense)
	})
	if err != nil {
		return nil, err
	}

	for _, eng := range streamEngines {
		for _, pol := range streamPolicies {
			for _, st := range streamStores {
				cfg := spectralfly.SimConfig{Concentration: simConc, Seed: s.seed, Policy: spectralfly.RoutingMinimal}
				if pol == "ugal" {
					cfg.Policy = spectralfly.RoutingUGAL
				}
				if st == "packed" {
					cfg.Table = spectralfly.TableOptions{Store: spectralfly.StorePacked}
				}
				if eng == "sharded2" {
					cfg.Workers = 2
				}
				var sim *spectralfly.Sim
				b.timed("repro.simulate", 0, func() { sim, err = s.net.Simulate(cfg) })
				if err != nil {
					return nil, err
				}
				str := stream{engine: eng, policy: pol, store: st, sim: sim}
				// The first run on a fresh Sim grows its packet arena and
				// event queues (and, sharded, partitions the routers);
				// that one-time cost belongs to set-up.
				var first spectralfly.SimStats
				d := b.timed("simnet.first_run", 0, func() { first = sim.RunUniform(simLoadFactor, simMsgs) })
				b.sample("simnet.first_run_s", d.Seconds())
				checkConservation(b, "first run "+str.tag(), first, true)
				s.streams = append(s.streams, str)
			}
		}
	}
	return s, nil
}

// checkStoresAgree checks that the dense and packed stores report the
// same diameter and the same distances on a seeded sample of pairs.
func checkStoresAgree(b *bench, dense, packed *routing.Table, seed int64) {
	b.check(dense.Diameter() == packed.Diameter(), "dense diameter %d != packed %d", dense.Diameter(), packed.Diameter())
	rng := rand.New(rand.NewSource(seed))
	n := dense.G.N()
	bad := 0
	for i := 0; i < 4096; i++ {
		v, d := rng.Intn(n), rng.Intn(n)
		if dense.HopDist(v, d) != packed.HopDist(v, d) {
			bad++
		}
	}
	b.check(bad == 0, "dense and packed stores disagree on %d of 4096 sampled distances", bad)
}

func (s *simLoadState) pass(b *bench, p *passRecord) error {
	t0 := time.Now()
	stage := b.tr.begin("bench.streams", b.root)
	var hops int64
	for i, str := range s.streams {
		runs := 1
		if i == 0 {
			runs = 2 // the Stats.Equal check of a repeated configuration
		}
		var prev spectralfly.SimStats
		for r := 0; r < runs; r++ {
			for _, kind := range []string{"uniform", "pattern"} {
				var st spectralfly.SimStats
				var err error
				d := b.timed("simnet.run", stage, func() {
					if kind == "uniform" {
						st = str.sim.RunUniform(simLoadFactor, simMsgs)
					} else {
						st, err = str.sim.RunPattern(simPattern, simRanks, simLoadFactor, simMsgs)
					}
				})
				what := fmt.Sprintf("stream %s %s", str.tag(), kind)
				if err != nil {
					return fmt.Errorf("%s: %w", what, err)
				}
				checkConservation(b, what, st, true)
				if r == 1 && kind == "uniform" {
					b.check(st.Equal(prev), "%s: repeated run differs from the first", what)
				}
				if kind == "uniform" {
					prev = st
				}
				if r == 0 {
					b.digest(what, st)
				}
				hops += st.TotalHops
				b.sample("simnet.run_s", d.Seconds())
				sampleRun(b, "simnet.ns_per_hop."+str.tag(), st, d)
			}
		}
	}
	b.tr.end(stage)
	p.stage[0] = time.Since(t0)
	b.rate("sim_hops_per_s", float64(hops), p.stage[0])

	t0 = time.Now()
	stage = b.tr.begin("bench.motifs", b.root)
	var mp traffic.Mapping
	var err error
	d := b.timed("traffic.mapping", stage, func() { mp, err = traffic.NewMapping(simRanks, s.motifNW.Endpoints(), s.seed) })
	if err != nil {
		return err
	}
	b.sample("traffic.mapping_s", d.Seconds())
	hops = 0
	for i, m := range simMotifs {
		var rounds [][]simnet.Message
		d := b.timed("traffic.rounds", stage, func() { rounds = traffic.MapRounds(m, mp) })
		b.sample("traffic.rounds_s", d.Seconds())
		var st simnet.Stats
		d = b.timed("simnet.batches", stage, func() { st, err = s.motifNW.RunBatches(rounds) })
		if err != nil {
			return fmt.Errorf("motif %s: %w", m.Name(), err)
		}
		checkConservation(b, "motif "+m.Name(), st, true)
		b.digest("motif "+m.Name(), st)
		hops += st.TotalHops
		sampleRun(b, "simnet.batch_ns_per_hop."+motifTags[i], st, d)
	}
	b.tr.end(stage)
	p.stage[1] = time.Since(t0)
	b.rate("motif_hops_per_s", float64(hops), p.stage[1])
	return nil
}

// sampleRun records one simulation's per-layer observations.
func sampleRun(b *bench, nsPerHop string, st simnet.Stats, d time.Duration) {
	if st.TotalHops > 0 {
		b.sample(nsPerHop, float64(d.Nanoseconds())/float64(st.TotalHops))
	}
	b.sample("simnet.sim_mb", float64(st.MemoryBytes)/(1<<20))
	b.sample("simnet.hops", float64(st.TotalHops))
	b.sample("simnet.delivered", float64(st.Delivered))
	b.sample("simnet.valiant_taken", float64(st.ValiantTaken))
}

func (s *simLoadState) finish(b *bench) error {
	b.note("sim-load: the simulator has no reference results in this repository (no SST/macro data), " +
		"so its statistics are checked for conservation and determinism only, not validated")
	return nil
}

func (s *simLoadState) close() {}

// heldOutSimLoad runs one uniform and one pattern stream at another
// seed, through both engines.
func heldOutSimLoad(b *bench, seed int64) error {
	net, err := spectralfly.LPS(simP, simQ)
	if err != nil {
		return err
	}
	for _, workers := range []int{0, 2} {
		sim, err := net.Simulate(spectralfly.SimConfig{Concentration: simConc, Seed: seed, Policy: spectralfly.RoutingUGAL, Workers: workers})
		if err != nil {
			return err
		}
		checkConservation(b, "held-out uniform", sim.RunUniform(simLoadFactor, 2), true)
		st, err := sim.RunPattern(simPattern, simRanks, simLoadFactor, 2)
		if err != nil {
			return err
		}
		checkConservation(b, "held-out pattern", st, true)
	}
	return nil
}
