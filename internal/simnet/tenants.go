package simnet

import "fmt"

// Multi-tenant runs: a TenantConfig partitions the endpoints among
// co-scheduled jobs ("tenants") and gives each its own offered load.
// The engine stays a single event simulation — tenants share ports,
// links and routing exactly like ranks of one job — but injection
// pacing becomes per-tenant (each endpoint draws inter-arrival gaps
// from its tenant's load instead of the global one) and delivery
// statistics are additionally folded per tenant, so inter-job
// interference (a victim tenant's tail latency under an aggressor's
// load) is directly observable. A message belongs to its source
// endpoint's tenant. traffic.Tenants builds configs from placement
// policies; see DESIGN.md §12.

// TenantConfig assigns endpoints to tenants. It is read-only once set
// and shared across clones and shards like the dead mask.
type TenantConfig struct {
	// OfEP maps each endpoint to its tenant id, or -1 for an endpoint
	// no tenant owns (such endpoints may still stream pattern draws
	// but their patterns emit no traffic). Length must equal
	// Endpoints().
	OfEP []int32
	// Load is each tenant's offered load as a fraction of endpoint
	// injection bandwidth, in (0, 1]. Entries index tenant ids.
	Load []float64
}

// TenantStats is the per-tenant slice of a run's statistics:
// the same Offered/Delivered/Dropped conservation identity and
// latency digest as the global Stats, restricted to messages whose
// source endpoint belongs to the tenant.
type TenantStats struct {
	Offered     int
	Delivered   int
	Dropped     int // Offered - Delivered
	MeanLatency float64
	P99Latency  int64
}

// SetTenants overrides the multi-tenant configuration for subsequent
// runs (nil = single-tenant). Like SetSchedule it returns an error —
// leaving the previous configuration in place — on a malformed
// config, so a sweep can fail one cell instead of the process.
func (nw *Network) SetTenants(tc *TenantConfig) error {
	if tc != nil {
		if len(tc.OfEP) != nw.nep {
			return fmt.Errorf("simnet: TenantConfig.OfEP length %d, want %d", len(tc.OfEP), nw.nep)
		}
		for ep, t := range tc.OfEP {
			if t < -1 || int(t) >= len(tc.Load) {
				return fmt.Errorf("simnet: TenantConfig.OfEP[%d] = %d, want -1..%d", ep, t, len(tc.Load)-1)
			}
		}
		for t, l := range tc.Load {
			if l <= 0 || l > 1 {
				return fmt.Errorf("simnet: tenant %d load %v out of (0,1]", t, l)
			}
		}
	}
	nw.tenants = tc
	return nil
}

// gapOf returns the mean injection gap for one endpoint: its tenant's
// load when tenants are configured, the run's global load otherwise.
func (nw *Network) gapOf(ep int32) float64 {
	if nw.tenants != nil {
		if t := nw.tenants.OfEP[ep]; t >= 0 {
			return float64(nw.cfg.PacketFlits) / nw.tenants.Load[t]
		}
	}
	return nw.meanGap
}

// resetTenants (re)initializes a view's per-tenant accumulators for a
// run.
func (nw *Network) resetTenants() {
	if nw.tenants == nil {
		nw.tenStats = nil
		nw.tenLat = nil
		return
	}
	k := len(nw.tenants.Load)
	nw.tenStats = make([]TenantStats, k)
	if len(nw.tenLat) != k {
		nw.tenLat = make([]latDigest, k)
	}
	for t := range nw.tenLat {
		nw.tenLat[t].reset()
	}
}

// tenOffered charges one offered message to the source endpoint's
// tenant.
func (nw *Network) tenOffered(srcEP int32) {
	if nw.tenants == nil {
		return
	}
	if t := nw.tenants.OfEP[srcEP]; t >= 0 {
		nw.tenStats[t].Offered++
	}
}

// tenDelivered charges one delivery and its end-to-end latency to the
// source endpoint's tenant.
func (nw *Network) tenDelivered(srcEP int32, lat int64) {
	if nw.tenants == nil {
		return
	}
	if t := nw.tenants.OfEP[srcEP]; t >= 0 {
		nw.tenStats[t].Delivered++
		nw.tenLat[t].add(lat)
	}
}

// foldTenants combines the views' per-tenant accounting, in view
// order: counters sum and the digests merge into view 0's, so tenant
// statistics are exact and identical for every shard count, like the
// run's. Returns nil on a single-tenant run so Stats.Tenants stays
// omitted from JSON.
func (nw *Network) foldTenants() []TenantStats {
	if nw.tenants == nil {
		return nil
	}
	v0 := nw.views[0]
	out := make([]TenantStats, len(v0.tenStats))
	for t := range out {
		d := &v0.tenLat[t]
		for _, v := range nw.views {
			out[t].Offered += v.tenStats[t].Offered
			out[t].Delivered += v.tenStats[t].Delivered
			if v != v0 {
				d.merge(&v.tenLat[t])
			}
		}
		out[t].Dropped = out[t].Offered - out[t].Delivered
		out[t].MeanLatency = d.mean()
		out[t].P99Latency = d.quantile(0.99)
	}
	return out
}
