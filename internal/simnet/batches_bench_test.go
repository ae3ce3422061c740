package simnet_test

import (
	"fmt"
	"testing"

	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// BenchmarkRunBatches measures the motif path — one drain per round,
// so a multi-shard run starts its shard goroutines once per round — on
// the class-1 instance (LPS(11,7), 672 endpoints) under a Halo3D-26
// exchange over 512 ranks, at one and two shards.
func BenchmarkRunBatches(b *testing.B) {
	inst := topo.MustLPS(11, 7)
	tab := routing.NewTable(inst.G)
	const conc, ranks = 4, 512
	mp, err := traffic.NewMapping(ranks, inst.G.N()*conc, 11)
	if err != nil {
		b.Fatal(err)
	}
	rounds := traffic.MapRounds(traffic.Halo3D26{NX: 8, NY: 8, NZ: 8, Iters: 12}, mp)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			nw, err := simnet.New(simnet.Config{Topo: inst.G, Concentration: conc, Seed: 11, Workers: w}, tab)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := nw.RunBatches(rounds); err != nil {
				b.Fatal(err)
			}
			var hops int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := nw.RunBatches(rounds)
				if err != nil {
					b.Fatal(err)
				}
				hops += st.TotalHops
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
			b.ReportMetric(float64(len(rounds)), "rounds")
		})
	}
}
