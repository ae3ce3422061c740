package simnet

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/fault"
	"repro/internal/partition"
)

// This file is the run engine behind every simulation: RunLoad,
// RunLoadTimed and RunBatches, for every Config.Workers value
// (DESIGN.md §10).
//
// Routers are split into P shards by partition.KWay (recursive
// multilevel bisection, so the cross-shard cut — and with it the
// barrier traffic — is low); P = 1 is the whole router set. Each shard
// is a view of the Network that owns the routers of its part and every
// endpoint attached to them: it has a private calendar-queue scheduler,
// packet arena, latency digest and statistics, while the
// port/NIC/injection-cursor arrays are shared with owner-only writes (a
// router's port state is only ever touched by the view that owns the
// router, an endpoint's NIC state only by the view owning its router).
//
// Time advances in windows. With several shards they are lock-step
// windows of the model's intrinsic lookahead L = RouterLatency +
// PacketFlits + (the smallest wire latency over links crossing the
// shard cut): a hop scheduled while processing an event at time t
// arrives no earlier than t + L, and only router-to-router hops can
// cross shards, so during the window [T, T+L) every cross-shard arrival
// generated by any shard lands at or beyond T+L — the next window. Each
// round the coordinator picks T as the global earliest pending event,
// every shard drains events with time < T+L on its own goroutine, and
// at the barrier every shard absorbs the arrivals other shards queued
// for it. One shard needs no lookahead: it drains inline on the
// caller's goroutine in one window per schedule segment.
//
// A timed topology schedule (Config.Schedule) rides on the same
// barriers: the coordinator walks the schedule with a fault.EdgeCursor
// and clips every window so none spans a Change.Cycle. A change at
// cycle C therefore applies at the barrier where the global earliest
// pending event has reached C — every event before C has drained,
// every view is parked — by mutating the shared liveTopo and
// re-pointing each view's live-table alias (applyTopo, schedule.go).
// Clipping only ever shrinks windows, so the lookahead argument is
// untouched. The conservation invariant is checked at each such
// barrier via the onTopo hook, where the per-view counters sum exactly
// (see conservation).
//
// Determinism comes from a canonical per-router order on events, not
// from the merge order: an event's scheduler tie-break key (event.seq)
// is the message's stable identity — srcEP·msgs + draw index for packet
// events, the same form offset past the packet range for
// injection-cursor events, the message's index for RunBatches — and
// each packet draws its routing randomness (next-hop selection,
// Valiant intermediates) from a private SplitMix64 stream seeded by
// that identity. Every view pops each router's arrivals in (time, key)
// order no matter how they arrived; events at different routers in the
// same cycle touch disjoint state (sched.go), so their relative order
// is free, and a router's event order does not depend on which other
// routers share its view. The simulated schedule — port contention,
// adaptive decisions, everything — is therefore a pure function of the
// seed, identical for every shard count.
type parRun struct {
	shardOf []int32 // router id -> owning view
	msgs    int64   // msgsPerEP, the stride of the canonical id space
	injBase int64   // nep*msgs: injection-event keys start past packets
	inline  bool    // one view, drained on the caller's goroutine
	// peak is the largest pending-event and in-flight-packet count at
	// any cycle boundary of the run (the MemoryBytes occupancy terms).
	peak occupancy
}

// occupancy is the model's queue state at one cycle boundary: pending
// events and in-flight packets, each counted once wherever it lives (a
// view's scheduler and arena, or an outbox between barriers).
type occupancy struct{ events, packets int }

func (o *occupancy) raise(x occupancy) {
	o.events = max(o.events, x.events)
	o.packets = max(o.packets, x.packets)
}

// xmsg is one cross-shard packet handoff: the arrival event (with the
// canonical key already in e.seq), the packet by value, and its
// identity/routing-stream sidecar. The receiving view reallocates the
// packet in its own arena and rewrites e.pkt.
type xmsg struct {
	e   event
	p   packet
	uid int64
	rng uint64
}

// kwayCache memoizes shard assignments per shard count for one
// topology instance (shared across clones, like the routing table).
type kwayCache struct {
	mu sync.Mutex
	m  map[int][]int32
}

// minShardRouters caps the shard count so no shard degenerates below a
// few routers (the barrier overhead would swamp the win long before).
const minShardRouters = 4

// shardCount resolves Config.Workers to the run's shard count:
// Workers <= 1 and topologies too small to split are one shard.
func (nw *Network) shardCount() int {
	return max(1, min(nw.cfg.Workers, nw.n/minShardRouters))
}

// minCutLatency returns the smallest wire latency over links whose
// endpoints live in different shards — the link term of the PDES
// lookahead. Only router-to-router hops cross shards (injections and
// deliveries are shard-local by construction), so this is the tight
// safe bound; with a uniform latency it is exactly cfg.LinkLatency.
// Windows only decide where barriers fall, and each router's event
// order is (time, canonical key) regardless of barrier placement, so
// the bound cannot affect results.
func (nw *Network) minCutLatency(shardOf []int32) int64 {
	if nw.lats == nil {
		return nw.cfg.LinkLatency
	}
	min := int64(math.MaxInt64)
	for r := 0; r < nw.n; r++ {
		for slot, w := range nw.cfg.Topo.Neighbors(r) {
			if shardOf[r] != shardOf[w] && nw.lats.Port[r][slot] < min {
				min = nw.lats.Port[r][slot]
			}
		}
	}
	if min == math.MaxInt64 {
		// No cross-shard link at all: no handoff ever crosses a window,
		// so any positive bound is safe.
		return nw.cfg.LinkLatency
	}
	return min
}

// shardAssign returns the memoized router-to-shard map for the given
// shard count (all zeros for one shard).
func (nw *Network) shardAssign(shards int) []int32 {
	assign := func() []int32 {
		if shards == 1 {
			return make([]int32, nw.n)
		}
		return partition.KWay(nw.cfg.Topo, shards, partition.Options{Seed: 0x5f3759df, Trials: 2})
	}
	c := nw.kways
	if c == nil {
		// Hand-constructed Network (tests): no cache to share.
		return assign()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.m[shards]; ok {
		return a
	}
	a := assign()
	if c.m == nil {
		c.m = make(map[int][]int32)
	}
	c.m[shards] = a
	return a
}

// begin sets up the views of a run whose run-wide state reset (and,
// for RunLoad, the workload fields) already prepared: it sizes the
// view list to the shard count — keeping the views of earlier runs and
// their buffers — and binds each view to this run.
func (nw *Network) begin(msgs int64) []*Network {
	p := nw.shardCount()
	shardOf := nw.shardAssign(p)
	if nw.par == nil {
		nw.par = &parRun{}
	}
	*nw.par = parRun{shardOf: shardOf, msgs: msgs, injBase: int64(nw.nep) * msgs, inline: p == 1}
	if len(nw.views) != p {
		views := make([]*Network, p)
		copy(views, nw.views)
		for s := range views {
			if views[s] == nil {
				views[s] = &Network{}
			}
		}
		nw.views = views
	}
	for s, v := range nw.views {
		nw.bind(v, int32(s))
	}
	return nw.views
}

// bind points view v at the run-wide state of the current run and
// empties its private state, keeping its buffers.
func (nw *Network) bind(v *Network, s int32) {
	v.cfg, v.table, v.tbl, v.n, v.nep = nw.cfg, nw.table, nw.tbl, nw.n, nw.nep
	v.dead, v.lats, v.tenants, v.live = nw.dead, nw.lats, nw.tenants, nw.live
	v.portFree, v.injFree, v.ejFree = nw.portFree, nw.injFree, nw.ejFree
	v.gens, v.pattern, v.tpattern, v.meanGap = nw.gens, nw.pattern, nw.tpattern, nw.meanGap
	v.onDeliver, v.par, v.shardID = nw.onDeliver, nw.par, s
	if v.rng == nil {
		v.rng = rand.New(&v.pktSrc)
	}
	v.sched.reset(nw.n)
	v.packets = v.packets[:0]
	v.free = v.free[:0]
	v.lat.reset()
	v.resetTenants()
	v.stats = Stats{}
	v.dropRun = 0
	v.obs = 0
	if p := len(nw.views); len(v.out) != p {
		v.out = make([][]xmsg, p)
	}
	v.resetOutbox()
}

func (nw *Network) resetOutbox() {
	for j := range nw.out {
		nw.out[j] = nw.out[j][:0]
	}
	nw.outN = 0
}

// setPktMeta records a packet's canonical identity and routing-RNG
// state in the arena sidecars, growing them in step with the arena.
func (nw *Network) setPktMeta(pi int32, uid int64, rngState uint64) {
	for len(nw.pktUID) < len(nw.packets) {
		nw.pktUID = append(nw.pktUID, 0)
		nw.pktRng = append(nw.pktRng, 0)
	}
	nw.pktUID[pi] = uid
	nw.pktRng[pi] = rngState
}

// newStream gives a freshly created packet its canonical id and the
// routing stream seeded by it (lanes past the endpoint generators').
func (nw *Network) newStream(pi int32, uid int64) {
	nw.setPktMeta(pi, uid, mixSeed(nw.cfg.Seed, int64(nw.nep)+uid))
}

// recv absorbs one cross-shard handoff into this view's arena and
// scheduler. e.seq already carries the canonical key, so where the
// message came from cannot influence pop order.
func (nw *Network) recv(x xmsg) {
	pi := nw.newPacket(x.p)
	nw.setPktMeta(pi, x.uid, x.rng)
	e := x.e
	e.pkt = pi
	nw.sched.push(e)
}

// drainUntil processes every queued event with time < end, wrapping
// evArrive handling with the owning packet's routing-RNG stream, and
// observes the occupancy at every cycle boundary it crosses.
func (nw *Network) drainUntil(end int64) {
	for {
		ep := nw.sched.popBefore(end)
		if ep == nil {
			return
		}
		e := *ep
		if e.time > nw.obs {
			nw.observe(e.time, 1) // e is popped but still pending
		}
		if e.kind == evArrive {
			nw.pktSrc.state = nw.pktRng[e.pkt]
			nw.handle(e)
			// Harmless if the packet was delivered, dropped or handed
			// off (the slot is then free and the state unread).
			nw.pktRng[e.pkt] = nw.pktSrc.state
		} else {
			nw.handle(e)
		}
	}
}

// observe records this view's occupancy for the cycle boundaries
// (obs, t] — the state after every event before t has been processed —
// with pending extra events popped but not yet handled. One inline view
// is the whole model, so it raises the run's peak directly; a view of a
// multi-shard run records its share per boundary of the current window,
// and the coordinator sums the shares at the barrier.
func (nw *Network) observe(t int64, pending int) {
	o := occupancy{nw.sched.count + pending + nw.outN, nw.inFlight() + nw.outN}
	if nw.par.inline {
		nw.par.peak.raise(o)
	} else {
		for b := nw.obs + 1; b <= t; b++ {
			nw.occ[b-nw.winStart-1] = o
		}
	}
	nw.obs = t
}

// drive runs the views' pending events to completion, applying the
// schedule changes edges walks at window barriers. It first observes
// the occupancy the caller seeded.
func (nw *Network) drive(edges *fault.EdgeCursor) {
	var o occupancy
	for _, v := range nw.views {
		o.events += v.sched.count
		o.packets += v.inFlight()
	}
	nw.par.peak.raise(o)
	if nw.par.inline {
		nw.driveInline(edges)
	} else {
		nw.driveSharded(edges)
	}
}

// applyDue applies every schedule change due at or before next — the
// global earliest pending event: everything before it has drained and
// every view is parked — and re-points the views at the live table.
func (nw *Network) applyDue(edges *fault.EdgeCursor, next int64) {
	for {
		ci, ok := edges.Due(next)
		if !ok {
			return
		}
		nw.applyTopo(ci, nw.cfg.Schedule[ci].Cycle)
		for _, v := range nw.views {
			v.tbl = nw.tbl
		}
	}
}

// driveInline drains the single view on the caller's goroutine, in one
// window per schedule segment.
func (nw *Network) driveInline(edges *fault.EdgeCursor) {
	v := nw.views[0]
	for {
		next := v.sched.peekTime()
		// When the event stream has dried up (next == MaxInt64) this
		// drains the schedule's tail.
		nw.applyDue(edges, next)
		if next == math.MaxInt64 {
			return
		}
		end := int64(math.MaxInt64)
		if c, ok := edges.Peek(); ok {
			end = c
		}
		v.drainUntil(end)
	}
}

// window is one drain phase of a multi-shard run: events in
// [start, end).
type window struct{ start, end int64 }

// driveSharded alternates drain and merge phases over one goroutine per
// view — applying due topology changes at the barriers in between —
// and folds the views' per-boundary occupancy into the run's peak.
func (nw *Network) driveSharded(edges *fault.EdgeCursor) {
	views := nw.views
	lookahead := nw.cfg.RouterLatency + nw.cfg.PacketFlits + nw.minCutLatency(nw.par.shardOf)
	// Persistent view workers: drain phase, barrier, merge phase,
	// barrier, repeat. Outboxes written in a drain phase are read only
	// in the following merge phase and reset by their owner at the
	// start of the next drain phase; the coordinator's done-channel
	// round trips order every transition.
	drainCh := make([]chan window, len(views))
	mergeCh := make([]chan struct{}, len(views))
	doneCh := make(chan struct{}, len(views))
	for s, v := range views {
		drainCh[s] = make(chan window, 1)
		mergeCh[s] = make(chan struct{}, 1)
		if int64(cap(v.occ)) < lookahead {
			v.occ = make([]occupancy, lookahead)
		}
		go func(s int, v *Network) {
			for w := range drainCh[s] {
				v.resetOutbox()
				v.winStart, v.obs = w.start, w.start
				v.drainUntil(w.end)
				v.observe(w.end, 0)
				doneCh <- struct{}{}
				<-mergeCh[s]
				for _, src := range views {
					for _, x := range src.out[s] {
						v.recv(x)
					}
				}
				doneCh <- struct{}{}
			}
		}(s, v)
	}
	defer func() {
		for _, ch := range drainCh {
			close(ch)
		}
	}()
	for {
		next := int64(math.MaxInt64)
		for _, v := range views {
			next = min(next, v.sched.peekTime())
		}
		nw.applyDue(edges, next)
		if next == math.MaxInt64 {
			return
		}
		end := next + lookahead
		if c, ok := edges.Peek(); ok && c < end {
			// Clip the window at the next change cycle so no window spans
			// it. applyDue consumed every change at or before next, so
			// c > next and the window is never empty.
			end = c
		}
		for _, ch := range drainCh {
			ch <- window{next, end}
		}
		for range views {
			<-doneCh
		}
		for _, ch := range mergeCh {
			ch <- struct{}{}
		}
		for range views {
			<-doneCh
		}
		for i := range end - next {
			var o occupancy
			for _, v := range views {
				o.events += v.occ[i].events
				o.packets += v.occ[i].packets
			}
			nw.par.peak.raise(o)
		}
	}
}

// fold combines the views' statistics into the run's Stats, in view
// order. Counters sum, extrema take the max, and the latency digests
// merge into view 0's by summation, so the mean and P99 are exact over
// every delivery and identical for every shard count.
func (nw *Network) fold() Stats {
	v0 := nw.views[0]
	st := v0.stats
	for _, v := range nw.views[1:] {
		st.Offered += v.stats.Offered
		st.Delivered += v.stats.Delivered
		st.TotalHops += v.stats.TotalHops
		st.ValiantTaken += v.stats.ValiantTaken
		st.PatternSkips += v.stats.PatternSkips
		st.SeveredInFlight += v.stats.SeveredInFlight
		st.MaxLatency = max(st.MaxLatency, v.stats.MaxLatency)
		st.Makespan = max(st.Makespan, v.stats.Makespan)
		st.MaxVC = max(st.MaxVC, v.stats.MaxVC)
		v0.lat.merge(&v.lat)
	}
	st.Dropped = st.Offered - st.Delivered
	if d := &v0.lat; d.count > 0 {
		st.MeanLatency = d.mean()
		st.MeanHops = float64(st.TotalHops) / float64(d.count)
		st.P99Latency = d.quantile(0.99)
	}
	st.Tenants = nw.foldTenants()
	st.MemoryBytes = nw.MemoryBytes()
	nw.stats = st
	return st
}
