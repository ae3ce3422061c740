// Package simnet is the cycle-accounted network simulator standing in
// for SST/macro's SNAPPR model (§VI-A; substitution documented in
// DESIGN.md). It is an event-driven, store-and-forward, output-queued
// model: every router output port and every NIC injection/ejection port
// transmits one flit per cycle, packets occupy ports for their full
// serialization time, and links add fixed latency. Offered load is
// realized by Poisson (exponential inter-arrival) injection at each
// endpoint, exactly as the paper describes ("we inject messages with
// varying delays by simulating a Poisson process").
//
// UGAL-L is implemented with genuinely local information: the source
// router compares the backlog of the minimal-path and Valiant-path
// output ports (queue length × remaining hop count) and picks the
// smaller, matching §V's description of the UGAL-L variant.
//
// The model has unbounded queues, so deadlock cannot occur; the
// paper's virtual-channel discipline is still tracked per packet (VC =
// hops traversed) and validated against the d+1 / 2d+1 budgets of §V-A.
//
// A Network separates immutable instance state (topology, routing
// table, shard maps) from per-run state (ports, event queues,
// statistics). Clone produces a cheap second instance sharing the
// immutable half, so a sweep executor can run many configurations of
// the same instance concurrently — see internal/sweep. Every run goes
// through one engine (parallel.go), split into Config.Workers router
// shards, with results identical for every shard count.
//
// The run loop streams its workload: RunLoad keeps one injection
// cursor per endpoint (epGen) that schedules only that endpoint's next
// arrival, delivered packets recycle arena slots through a freelist,
// and latency statistics fold into an exact per-latency histogram
// (latDigest) — so steady-state memory is O(active packets + endpoints
// + largest latency), not O(total offered traffic). Events dispatch
// through a calendar-queue scheduler (sched.go) sized to the model's
// cycle granularity, with a heap fallback for far-future events. See
// DESIGN.md §9 for the memory model.
package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Config describes a simulated network instance.
type Config struct {
	// Topo is the router-level topology.
	Topo *graph.Graph
	// Concentration is the number of endpoints attached to each router.
	Concentration int
	// PacketFlits is the serialization time of one packet in cycles
	// (one flit per cycle per port). Default 16.
	PacketFlits int64
	// RouterLatency is the per-hop pipeline latency in cycles. Default 5.
	RouterLatency int64
	// LinkLatency is the router-to-router wire latency in cycles.
	// Default 10.
	LinkLatency int64
	// Policy is the routing algorithm. Default Minimal.
	Policy routing.Policy
	// UGALThreshold biases UGAL-L toward the minimal path (a packet
	// takes the Valiant path only if its weighted backlog is smaller by
	// more than this many cycles). Default 0.
	UGALThreshold int64
	// DeadRouters marks failed routers (nil = none). A dead router
	// cannot source, sink or switch traffic: messages to or from its
	// endpoints are dropped at the NIC and counted in Stats.Dropped.
	// Length must equal Topo.N() when non-nil.
	DeadRouters []bool
	// Schedule lists timed topology events — link cuts/restores, router
	// kills/revivals, planned rewiring steps — applied mid-run at their
	// cycles (fault.Schedule; see DESIGN.md §10). At each event the run's
	// routing table is repaired incrementally (Table.Repair for cuts,
	// Table.Restore for restores) and subsequent hops route on the new
	// table; a packet whose traversed link is down at its arrival
	// instant, or that arrives at a dead router, is dropped and counted
	// in Stats.SeveredInFlight. Every pair must be an edge of Topo
	// (restores bring base-topology links back — the schedule can never
	// grow the topology past Topo). Nil/empty means a static topology
	// and changes nothing. The run loop clips its drain windows at
	// change cycles and applies each change while every shard is parked,
	// so an event at cycle t sees exactly the changes with Cycle <= t,
	// for every Workers value (DESIGN.md §10). RunBatches returns an
	// error on a scheduled instance: motif rounds have no global clock a
	// schedule could be pinned to.
	Schedule fault.Schedule
	// Seed drives all randomized choices.
	Seed int64
	// Workers is the number of router shards a run is split into, each
	// drained on its own goroutine; 0 and 1 mean one shard, drained
	// inline on the caller's goroutine. Every run — RunLoad,
	// RunLoadTimed, RunBatches, scheduled or not — goes through the same
	// engine (parallel.go), whose event order and routing randomness
	// derive from canonical message identities, so Stats are identical
	// for every Workers value (DESIGN.md §10). Workers only trades
	// wall-clock time for cores. A topology too small to give every
	// shard four routers runs on fewer shards.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Concentration <= 0 {
		c.Concentration = 1
	}
	if c.PacketFlits <= 0 {
		c.PacketFlits = 16
	}
	if c.RouterLatency <= 0 {
		c.RouterLatency = 5
	}
	if c.LinkLatency <= 0 {
		c.LinkLatency = 10
	}
	return c
}

// Network is a simulation instance. It may be reused across runs; each
// run resets all port and statistics state. The topology, routing
// table and instance configuration are immutable after New and shared
// by Clone.
//
// The same struct plays two roles. The Network a caller holds owns the
// run-wide state (port and NIC state, injection cursors, the live
// topology) and coordinates the run; its shard views (views, see
// parallel.go) alias that state and each add a private scheduler,
// packet arena and statistics. Views are kept across runs, so a stream
// of runs on one Network reuses their buffers.
type Network struct {
	cfg   Config
	table *routing.Table
	n     int // routers
	nep   int // endpoints

	// dead marks failed routers (shared read-only across clones; nil
	// when the instance is undamaged).
	dead []bool

	// lats is the optional per-link wire-latency table (read-only once
	// set; nil = the uniform Config.LinkLatency scalar). Set per clone
	// like dead.
	lats *LinkLatencies

	// tenants is the optional multi-tenant workload configuration
	// (read-only once set; nil = single-tenant run). Set per clone.
	tenants *TenantConfig

	// kways memoizes shard assignments per shard count (shared across
	// clones of an instance, like the routing table).
	kways *kwayCache

	// ---- run-wide state, aliased by the views (owner-only writes) ----

	// Per-router output port state: portFree[r][slot] is the earliest
	// cycle the port toward Topo.Neighbors(r)[slot] is idle. A router's
	// ports are written only by the view owning the router.
	portFree [][]int64
	// Injection and ejection port state per endpoint, written only by
	// the view owning the endpoint's router.
	injFree []int64
	ejFree  []int64

	// tbl is the live routing table of the current run: it starts as
	// table and is re-pointed at each applied topology change (applyTopo
	// re-points every view's tbl while the views are parked), so all
	// per-run routing decisions go through tbl while table stays the
	// pristine shared instance. With an empty schedule tbl == table for
	// the whole run.
	tbl *routing.Table
	// live is the run-local live topology of a scheduled run (nil with
	// an empty schedule): the dead/down masks plus the live table,
	// mutated only by applyTopo (schedule.go) while every view is
	// parked.
	live *liveTopo
	// onTopo, when set, is called after each topology event is applied
	// (test hook for boundary invariant checks). onDeliver, when set, is
	// called with every delivered message's latency (test hook; it runs
	// on the delivering view's goroutine).
	onTopo    func(now int64)
	onDeliver func(lat int64)

	// gens holds the per-endpoint streaming injection cursors of
	// RunLoad (allocated once per instance, reseeded per run); each is
	// advanced only by the view owning the endpoint's router.
	gens     []epGen
	pattern  PatternFunc
	tpattern TimedPatternFunc
	meanGap  float64

	// stats is the folded result of the latest run (on a view: that
	// view's share of the current run).
	stats Stats

	// views are the shard views of the current (or latest) run.
	views []*Network
	// par is the run context the views share: shard map, canonical-key
	// layout and the occupancy peaks behind MemoryBytes.
	par *parRun

	// ---- view-private state (parallel.go) ----

	shardID int32
	sched   scheduler
	// packets is the arena of in-flight messages: events reference
	// packets by index, so the event queue carries no pointers. free
	// lists the arena slots of delivered/dropped packets for reuse, so
	// the arena high-water mark tracks the in-flight peak rather than
	// the total message count of the run.
	packets []packet
	free    []int32
	// pktUID/pktRng shadow the packet arena: each packet's canonical
	// message id (the scheduler tie-break key) and its private
	// routing-RNG state.
	pktUID []int64
	pktRng []uint64
	// rng draws routing randomness (next hops, Valiant intermediates)
	// from pktSrc, which drainUntil loads with the current packet's
	// stream around each arrival.
	pktSrc splitmix64
	rng    *rand.Rand
	// lat folds the latencies this view delivered; tenStats/tenLat are
	// the per-tenant counters and digests (nil unless tenants is set). A
	// message belongs to its source endpoint's tenant.
	lat      latDigest
	tenStats []TenantStats
	tenLat   []latDigest
	// dropRun counts every message this view lost after it was offered
	// — NIC-dead, unreachable, or severed in flight — so the
	// conservation invariant Offered == Delivered + dropRun + in-flight
	// holds, summed over views, at every barrier.
	dropRun int
	// out[s] collects the arrivals this view generated for routers owned
	// by view s during the current window; outN counts them.
	out  [][]xmsg
	outN int
	// Occupancy observation (MemoryBytes): obs is the latest cycle
	// boundary observed, and occ[b-winStart-1] records boundary b of the
	// current window on a multi-shard run.
	obs      int64
	winStart int64
	occ      []occupancy
}

// packet is an in-flight message.
type packet struct {
	srcEP, dstEP int32
	dstRouter    int32
	interm       int32 // Valiant intermediate router (-1 = none)
	phase        int8  // 0 = toward intermediate, 1 = toward destination
	hops         int32 // network hops taken so far (= VC index)
	created      int64 // cycle the message entered the injection queue
}

// Event kinds.
const (
	evArrive  int8 = iota // packet arrives at a router
	evDeliver             // packet delivered to its endpoint
	evInject              // an endpoint's next streamed injection is due
)

type event struct {
	time int64
	seq  int64 // canonical key: the tie-break among same-cycle events
	at   int32 // router id (endpoint id for evDeliver/evInject)
	kind int8
	pkt  int32 // index into Network.packets (unused for evInject)
	// The router and port slot an arrival left through, read only by
	// handle's severed-in-flight check; fromR = -1 marks a hop from the
	// NIC, which has no cuttable link.
	fromR    int32
	fromSlot int32
}

// eventQueue is a hand-rolled binary min-heap over (time, seq). It
// avoids the interface{} boxing of container/heap: push/pop move plain
// event values, never allocating per event. (time, seq) is a total
// order — seq is unique — so the pop order is fully deterministic.
// The scheduler uses it as the overflow store for events beyond the
// calendar-queue horizon.
type eventQueue []event

func (q eventQueue) before(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*q = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && h.before(r, l) {
			c = r
		}
		if !h.before(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

// Stats aggregates a run.
type Stats struct {
	// Offered counts the messages the workload generated (excluding
	// self-sends, which no pattern ever transmits); Delivered counts
	// those that reached their destination endpoint. On an undamaged
	// topology the two are equal; on a damaged one the gap is Dropped.
	Offered      int
	Delivered    int
	Dropped      int     // Offered - Delivered: lost to dead routers or partitions
	MaxLatency   int64   // max (delivery - creation) across messages
	MeanLatency  float64 // mean end-to-end latency of delivered messages
	P99Latency   int64
	Makespan     int64 // delivery time of the last message
	TotalHops    int64
	MaxVC        int32 // highest VC index observed (= max hops on a path)
	MeanHops     float64
	ValiantTaken int // packets routed non-minimally by UGAL/Valiant
	// PatternSkips counts workload draws discarded because the pattern
	// returned the source endpoint itself or an id outside the endpoint
	// range (excluding the -1 "this source emits no traffic" sentinel of
	// traffic.Mapping.PatternEndpoints). There is no redraw, so for
	// patterns with fixed points (e.g. transpose, bit-complement on a
	// palindromic rank) the realized offered load undershoots the
	// nominal load by PatternSkips/(Offered+PatternSkips).
	PatternSkips int
	// SeveredInFlight counts packets dropped mid-flight by a timed
	// topology event: at its arrival instant the link it traversed was
	// down, or the router (or destination endpoint's router) it reached
	// was dead. Always a subset of Dropped; zero — and omitted from JSON,
	// so static-run goldens are untouched — unless the run had a
	// schedule.
	SeveredInFlight int `json:",omitempty"`
	// Tenants is the per-tenant slice of the run's accounting when a
	// TenantConfig was set (SetTenants), indexed by tenant id; nil —
	// and omitted from JSON, so single-tenant goldens are untouched —
	// otherwise.
	Tenants []TenantStats `json:",omitempty"`
	// MemoryBytes is the model's working set at its peak: pending
	// events and in-flight packets at the fullest cycle boundary of the
	// run, plus the latency digests, injection generators, port and NIC
	// state (see Network.MemoryBytes). It is a function of the simulated
	// schedule alone, so like every other field it is identical for
	// every Workers value.
	MemoryBytes int64
}

// Equal reports whether two Stats are identical, per-tenant slice
// included. (Stats stopped being ==-comparable when it grew the
// Tenants slice; determinism tests compare through this instead.)
func (s Stats) Equal(o Stats) bool {
	return reflect.DeepEqual(s, o)
}

// DeliveredFraction returns Delivered/Offered (1 for an idle run).
func (s Stats) DeliveredFraction() float64 {
	if s.Offered == 0 {
		return 1
	}
	return float64(s.Delivered) / float64(s.Offered)
}

// New builds a simulation instance over the given routing table.
func New(cfg Config, table *routing.Table) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.Topo == nil || table == nil {
		return nil, fmt.Errorf("simnet: nil topology or table")
	}
	if table.G != cfg.Topo {
		return nil, fmt.Errorf("simnet: routing table built for a different graph")
	}
	n := cfg.Topo.N()
	if !cfg.Policy.Valid() {
		return nil, fmt.Errorf("simnet: unknown routing policy %d", int(cfg.Policy))
	}
	if cfg.DeadRouters != nil && len(cfg.DeadRouters) != n {
		return nil, fmt.Errorf("simnet: DeadRouters length %d, want %d", len(cfg.DeadRouters), n)
	}
	if err := cfg.Schedule.Validate(cfg.Topo); err != nil {
		return nil, fmt.Errorf("simnet: %w", err)
	}
	return &Network{
		cfg:   cfg,
		table: table,
		n:     n,
		nep:   n * cfg.Concentration,
		dead:  cfg.DeadRouters,
		kways: &kwayCache{},
	}, nil
}

// Clone returns an independent simulation instance over the same
// topology and configuration. The immutable half (topology, routing
// table, shard maps) is shared read-only; all run state is private, so
// clones may run concurrently with each other and with the receiver.
// Use SetPolicy/SetSeed to vary the per-run configuration of a clone.
func (nw *Network) Clone() *Network {
	return &Network{
		cfg:     nw.cfg,
		table:   nw.table,
		n:       nw.n,
		nep:     nw.nep,
		dead:    nw.dead,
		lats:    nw.lats,
		tenants: nw.tenants,
		kways:   nw.kways,
	}
}

// SetPolicy overrides the routing policy for subsequent runs.
func (nw *Network) SetPolicy(p routing.Policy) { nw.cfg.Policy = p }

// SetSeed overrides the random seed for subsequent runs.
func (nw *Network) SetSeed(s int64) { nw.cfg.Seed = s }

// SetWorkers overrides the shard count of subsequent runs (see
// Config.Workers); it changes wall-clock time, never results.
func (nw *Network) SetWorkers(w int) { nw.cfg.Workers = w }

// SetDeadRouters overrides the failed-router mask for subsequent runs
// (nil = none). The mask is read-only and must have length Topo.N();
// the sweep engine applies one plan's mask to each clone of a damaged
// prototype.
func (nw *Network) SetDeadRouters(mask []bool) {
	if mask != nil && len(mask) != nw.n {
		panic(fmt.Sprintf("simnet: DeadRouters length %d, want %d", len(mask), nw.n))
	}
	nw.dead = mask
}

// LinkLatencies is an optional per-link wire-latency model replacing
// the uniform Config.LinkLatency scalar (layout.LinkLatencies derives
// one from a physical machine-room placement). Port[r][slot] is the
// latency in cycles of the link leaving router r through port slot
// (slot i feeds Topo.Neighbors(r)[i], the same indexing as the port
// state); NIC is the endpoint↔router wire latency (0 keeps
// Config.LinkLatency for NIC hops). A physical cable has one length,
// so callers normally build symmetric tables, but symmetry is not
// required by the model.
type LinkLatencies struct {
	Port [][]int64
	NIC  int64
}

// SetLinkLatencies overrides the wire-latency model for subsequent
// runs (nil = the uniform Config.LinkLatency scalar; see
// LinkLatencies). The table is read-only and must cover every port of
// every router with a non-negative latency. Like SetSchedule it
// returns an error — leaving the previous table in place — rather
// than panicking, so a sweep can fail one cell instead of the
// process.
func (nw *Network) SetLinkLatencies(lat *LinkLatencies) error {
	if lat != nil {
		if len(lat.Port) != nw.n {
			return fmt.Errorf("simnet: LinkLatencies.Port length %d, want %d", len(lat.Port), nw.n)
		}
		for r := 0; r < nw.n; r++ {
			if len(lat.Port[r]) != nw.cfg.Topo.Degree(r) {
				return fmt.Errorf("simnet: LinkLatencies.Port[%d] length %d, want degree %d", r, len(lat.Port[r]), nw.cfg.Topo.Degree(r))
			}
			for s, l := range lat.Port[r] {
				if l < 0 {
					return fmt.Errorf("simnet: LinkLatencies.Port[%d][%d] = %d, want >= 0", r, s, l)
				}
			}
		}
		if lat.NIC < 0 {
			return fmt.Errorf("simnet: LinkLatencies.NIC = %d, want >= 0", lat.NIC)
		}
	}
	nw.lats = lat
	return nil
}

// linkLat returns the wire latency of the link leaving router r
// through port slot: the per-port table when one is set, the uniform
// scalar otherwise. This is the hot-path lookup behind every
// router-to-router hop.
func (nw *Network) linkLat(r int32, slot int) int64 {
	if nw.lats != nil {
		return nw.lats.Port[r][slot]
	}
	return nw.cfg.LinkLatency
}

// nicLat returns the NIC↔router wire latency (injection and ejection
// hops).
func (nw *Network) nicLat() int64 {
	if nw.lats != nil && nw.lats.NIC > 0 {
		return nw.lats.NIC
	}
	return nw.cfg.LinkLatency
}

// SetSchedule overrides the timed topology-event schedule for
// subsequent runs (nil = static; see Config.Schedule). It returns an
// error — and leaves the previous schedule in place — on a schedule
// that is invalid for the instance's topology, the same conditions
// New enforces, so a sweep can fail one cell instead of crashing the
// process.
func (nw *Network) SetSchedule(s fault.Schedule) error {
	if err := s.Validate(nw.cfg.Topo); err != nil {
		return fmt.Errorf("simnet: %w", err)
	}
	nw.cfg.Schedule = s
	return nil
}

// isDead reports whether router r is failed.
func (nw *Network) isDead(r int32) bool { return nw.dead != nil && nw.dead[r] }

// Endpoints returns the number of attached endpoints.
func (nw *Network) Endpoints() int { return nw.nep }

// routerOf returns the router an endpoint attaches to.
func (nw *Network) routerOf(ep int32) int32 {
	return ep / int32(nw.cfg.Concentration)
}

// reset prepares the run-wide state of a new run: idle ports and NICs
// (reusing the previous run's arrays), the pristine routing table, a
// fresh live topology for a scheduled run, and empty statistics.
func (nw *Network) reset() {
	if nw.portFree == nil {
		nw.portFree = make([][]int64, nw.n)
		for r := range nw.portFree {
			nw.portFree[r] = make([]int64, nw.cfg.Topo.Degree(r))
		}
		nw.injFree = make([]int64, nw.nep)
		nw.ejFree = make([]int64, nw.nep)
	} else {
		for _, pf := range nw.portFree {
			clear(pf)
		}
		clear(nw.injFree)
		clear(nw.ejFree)
	}
	nw.pattern = nil
	nw.tpattern = nil
	nw.tbl = nw.table
	nw.live = nil
	if len(nw.cfg.Schedule) > 0 {
		nw.live = newLiveTopo(nw.cfg.Schedule, nw)
	}
	nw.stats = Stats{}
}

// push queues an event on this view, stamping its canonical key:
// srcEP·msgs + draw index for packet events (the packet's uid), the
// same form offset past the packet range for injection-cursor events.
// An arrival at a router another view owns goes to that view's outbox
// instead, together with the packet and its routing stream. Injection
// arrivals (NIC -> source router) and deliveries (router -> local
// endpoint) are local by construction; only router-to-router hops can
// cross views.
func (nw *Network) push(e event) {
	switch e.kind {
	case evInject:
		// The initial seeding pushes with left = msgs, fireInjection after
		// decrementing left: either way the event is draw number msgs-left
		// of endpoint e.at.
		e.seq = nw.par.injBase + int64(e.at)*nw.par.msgs + (nw.par.msgs - int64(nw.gens[e.at].left))
	case evArrive:
		e.seq = nw.pktUID[e.pkt]
		if s := nw.par.shardOf[e.at]; s != nw.shardID {
			// pktSrc holds this packet's routing stream: drainUntil loaded it
			// for the event being processed, and arriveAtRouter consumed its
			// draws before pushing.
			nw.out[s] = append(nw.out[s], xmsg{e: e, p: nw.packets[e.pkt], uid: nw.pktUID[e.pkt], rng: nw.pktSrc.state})
			nw.outN++
			nw.freePacket(e.pkt)
			return
		}
	case evDeliver:
		e.seq = nw.pktUID[e.pkt]
	}
	nw.sched.push(e)
}

// newPacket places a packet in the arena — reusing a freed slot when
// one exists — and returns its index. A packet has exactly one pending
// event at any moment, so a slot freed at delivery or drop is never
// referenced again and can be recycled immediately: the arena's
// high-water mark is the in-flight peak, not the run's message count.
func (nw *Network) newPacket(p packet) int32 {
	if n := len(nw.free); n > 0 {
		pi := nw.free[n-1]
		nw.free = nw.free[:n-1]
		nw.packets[pi] = p
		return pi
	}
	nw.packets = append(nw.packets, p)
	return int32(len(nw.packets) - 1)
}

// freePacket returns an arena slot to the freelist.
func (nw *Network) freePacket(pi int32) { nw.free = append(nw.free, pi) }

// inject serializes a packet through its endpoint's injection port and
// schedules its arrival at the source router.
func (nw *Network) inject(pi int32, now int64) {
	ep := nw.packets[pi].srcEP
	start := now
	if nw.injFree[ep] > start {
		start = nw.injFree[ep]
	}
	nw.injFree[ep] = start + nw.cfg.PacketFlits
	arrive := start + nw.cfg.PacketFlits + nw.nicLat()
	nw.push(event{time: arrive, at: nw.routerOf(ep), kind: evArrive, pkt: pi, fromR: -1})
}

// fireInjection services one endpoint's streaming injection cursor:
// draw this message's destination, schedule the endpoint's next
// arrival (keeping exactly one pending injection event per endpoint),
// and inject the packet. All draws come from the endpoint's private
// RNG, so the event interleaving cannot perturb any endpoint's
// workload stream.
func (nw *Network) fireInjection(ep int32, now int64) {
	g := &nw.gens[ep]
	g.left--
	var dst int
	if nw.tpattern != nil {
		dst = nw.tpattern(int(ep), now, g.rng)
	} else {
		dst = nw.pattern(int(ep), g.rng)
	}
	if g.left > 0 {
		nw.push(event{time: g.next(nw.gapOf(ep)), at: ep, kind: evInject})
	}
	switch {
	case dst == -1:
		// This source emits no traffic (endpoint outside the mapped
		// rank space): by design, not a skipped draw.
	case dst == int(ep) || dst < 0 || dst >= nw.nep:
		nw.stats.PatternSkips++
	default:
		nw.stats.Offered++
		nw.tenOffered(ep)
		if nw.deadNow(nw.routerOf(ep)) || nw.deadNow(nw.routerOf(int32(dst))) {
			nw.dropRun++
			return // orphaned endpoint: the message is lost at the NIC
		}
		pi := nw.newPacket(packet{
			srcEP:     ep,
			dstEP:     int32(dst),
			dstRouter: nw.routerOf(int32(dst)),
			interm:    -2, // routing decision pending
			created:   now,
		})
		// g.left was already decremented: this is draw msgs-left-1.
		nw.newStream(pi, int64(ep)*nw.par.msgs+(nw.par.msgs-int64(g.left)-1))
		nw.inject(pi, now)
	}
}

// chooseValiantIntermediate picks a random router distinct from both
// endpoints' routers that can actually relay the packet: on a damaged
// topology an intermediate must be reachable from the source and reach
// the destination, or the detour would strand the packet. Returns -1
// when no usable intermediate is found (callers fall back to minimal
// routing, which drops only if the pair is truly partitioned). On an
// undamaged topology every candidate passes, so the rejection sampling
// consumes exactly the same random draws as before.
func (nw *Network) chooseValiantIntermediate(srcR, dstR int32) int32 {
	for attempts := 0; attempts < 8*nw.n+16; attempts++ {
		i := int32(nw.rng.Intn(nw.n))
		if i == srcR || i == dstR {
			continue
		}
		if nw.tbl.HopDist(int(srcR), int(i)) < 0 || nw.tbl.HopDist(int(i), int(dstR)) < 0 {
			continue // cannot relay on the damaged topology
		}
		return i
	}
	return -1
}

// routeTarget returns the router the packet is currently heading for.
func (p *packet) routeTarget() int32 {
	if p.phase == 0 && p.interm >= 0 {
		return p.interm
	}
	return p.dstRouter
}

// decidePolicy fixes the packet's path shape at the source router.
func (nw *Network) decidePolicy(p *packet, r int32, now int64) {
	switch nw.cfg.Policy {
	case routing.Minimal:
		p.interm = -1
		p.phase = 1
	case routing.Valiant:
		if p.dstRouter == r {
			p.interm = -1
			p.phase = 1
			return
		}
		interm := nw.chooseValiantIntermediate(r, p.dstRouter)
		if interm < 0 {
			// No viable detour (damaged topology): minimal or bust.
			p.interm = -1
			p.phase = 1
			return
		}
		p.interm = interm
		p.phase = 0
		nw.stats.ValiantTaken++
	case routing.UGALL:
		if p.dstRouter == r {
			p.interm = -1
			p.phase = 1
			return
		}
		interm := nw.chooseValiantIntermediate(r, p.dstRouter)
		if interm < 0 {
			p.interm = -1
			p.phase = 1
			return
		}
		minSlot := nw.nextSlot(r, p.dstRouter)
		valSlot := nw.nextSlot(r, interm)
		if minSlot < 0 || valSlot < 0 {
			p.interm = -1
			p.phase = 1
			return
		}
		qMin := nw.portBacklog(r, minSlot, now)
		qVal := nw.portBacklog(r, valSlot, now)
		hMin := int64(nw.tbl.HopDist(int(r), int(p.dstRouter)))
		hVal := int64(nw.tbl.HopDist(int(r), int(interm))) +
			int64(nw.tbl.HopDist(int(interm), int(p.dstRouter)))
		if qVal*hVal+nw.cfg.UGALThreshold < qMin*hMin {
			p.interm = interm
			p.phase = 0
			nw.stats.ValiantTaken++
		} else {
			p.interm = -1
			p.phase = 1
		}
	}
}

// nextSlot draws the port slot of a uniformly random shortest-path next
// hop from r toward dest on the live table, or -1 when dest is
// unreachable. Slots index cfg.Topo.Neighbors(r). After a scheduled
// change the live table routes over the base topology minus the down
// links, whose neighbor lists are subsequences of the base ones, so its
// slot is translated back by a binary search (a cold path: static runs
// never take it).
func (nw *Network) nextSlot(r, dest int32) int {
	slot := nw.tbl.NextSlotRandom(int(r), int(dest), nw.rng)
	if slot < 0 || nw.tbl == nw.table {
		return slot
	}
	return portSlot(nw.cfg.Topo, r, nw.tbl.G.Neighbors(int(r))[slot])
}

// portSlot returns the port slot of router r facing neighbor w: w's
// index in r's sorted neighbor list.
func portSlot(g *graph.Graph, r, w int32) int {
	slot, _ := slices.BinarySearch(g.Neighbors(int(r)), w)
	return slot
}

// portBacklog returns the queueing delay (cycles) a packet would face
// on router r's output port slot — the "local queue length"
// information UGAL-L is allowed to use.
func (nw *Network) portBacklog(r int32, slot int, now int64) int64 {
	return max(nw.portFree[r][slot]-now, 0)
}

// arriveAtRouter routes a packet one hop further.
func (nw *Network) arriveAtRouter(r int32, pi int32, now int64) {
	p := &nw.packets[pi]
	// Phase handoff at the Valiant intermediate.
	if p.phase == 0 && r == p.interm {
		p.phase = 1
	}
	if r == p.dstRouter {
		// Eject to the endpoint (consumption is never blocked).
		start := now + nw.cfg.RouterLatency
		if nw.ejFree[p.dstEP] > start {
			start = nw.ejFree[p.dstEP]
		}
		nw.ejFree[p.dstEP] = start + nw.cfg.PacketFlits
		deliver := start + nw.cfg.PacketFlits + nw.nicLat()
		nw.push(event{time: deliver, at: p.dstEP, kind: evDeliver, pkt: pi})
		return
	}
	slot := nw.nextSlot(r, p.routeTarget())
	if slot < 0 {
		// Unreachable (only possible on damaged topologies): drop.
		nw.freePacket(pi)
		nw.dropRun++
		return
	}
	next := nw.cfg.Topo.Neighbors(int(r))[slot]
	start := now + nw.cfg.RouterLatency
	if nw.portFree[r][slot] > start {
		start = nw.portFree[r][slot]
	}
	nw.portFree[r][slot] = start + nw.cfg.PacketFlits
	p.hops++
	arrive := start + nw.cfg.PacketFlits + nw.linkLat(r, slot)
	nw.push(event{time: arrive, at: next, kind: evArrive, pkt: pi, fromR: r, fromSlot: int32(slot)})
}

// handle dispatches one event — the body of drainUntil's event loop.
func (nw *Network) handle(e event) {
	switch e.kind {
	case evInject:
		nw.fireInjection(e.at, e.time)
	case evArrive:
		// Severed at the arrival instant: the link the packet traversed
		// was cut, or the router it reached died, while it was in flight
		// (fromR < 0 means the hop came from the NIC, which has no
		// cuttable link). Surviving packets re-route naturally: the next
		// hop is chosen on the repaired live table.
		if nw.live != nil &&
			((e.fromR >= 0 && nw.live.downPort[e.fromR][e.fromSlot]) || nw.live.deadRun[e.at]) {
			nw.freePacket(e.pkt)
			nw.dropRun++
			nw.stats.SeveredInFlight++
			return
		}
		p := &nw.packets[e.pkt]
		if p.hops == 0 && p.interm == -2 {
			// First router touch: fix the path shape.
			nw.decidePolicy(p, e.at, e.time)
		}
		nw.arriveAtRouter(e.at, e.pkt, e.time)
	case evDeliver:
		p := &nw.packets[e.pkt]
		if nw.live != nil && nw.live.deadRun[p.dstRouter] {
			// The destination's router died while the packet sat in the
			// ejection pipeline.
			nw.freePacket(e.pkt)
			nw.dropRun++
			nw.stats.SeveredInFlight++
			return
		}
		lat := e.time - p.created
		nw.lat.add(lat)
		if nw.onDeliver != nil {
			nw.onDeliver(lat)
		}
		nw.stats.Delivered++
		nw.tenDelivered(p.srcEP, lat)
		if lat > nw.stats.MaxLatency {
			nw.stats.MaxLatency = lat
		}
		if e.time > nw.stats.Makespan {
			nw.stats.Makespan = e.time
		}
		nw.stats.TotalHops += int64(p.hops)
		if p.hops > nw.stats.MaxVC {
			nw.stats.MaxVC = p.hops
		}
		nw.freePacket(e.pkt)
	}
}

// MemoryBytes reports the working set of the latest run's model: the
// pending events and in-flight packets (with their canonical-id and
// RNG sidecars and freelist entries) at the fullest cycle boundary of
// the run, one calendar wheel, the latency digests, the injection
// generators, the port and NIC state, and a scheduled run's live
// topology. Every term is a function of the simulated schedule alone —
// the occupancy peaks sum the views' counts boundary by boundary, the
// digests are folded — so the value is identical for every Workers
// value and for fresh, cloned and reused instances. (A run on P shards
// additionally holds P-1 more wheels and per-shard arena slack; that is
// the engine's cost, not the model's, and is not charged.) The
// lazy-table backend's live table is the exception: its resident set
// depends on access order.
func (nw *Network) MemoryBytes() int64 {
	if nw.par == nil {
		return 0 // no run yet
	}
	const pktBytes = int64(unsafe.Sizeof(packet{})) + 4 + 16 // + freelist entry, uid and rng sidecars
	b := int64(nw.par.peak.events)*int64(unsafe.Sizeof(event{})) + wheelBytes
	b += int64(nw.par.peak.packets) * pktBytes
	v0 := nw.views[0] // holds the folded digests after fold
	b += v0.lat.memoryBytes()
	for t := range v0.tenLat {
		b += v0.tenLat[t].memoryBytes()
	}
	b += int64(len(v0.tenStats)) * int64(unsafe.Sizeof(TenantStats{}))
	if nw.pattern != nil || nw.tpattern != nil {
		// Streaming (RunLoad) runs use the injection generators: each
		// carries a two-word source plus one heap-allocated rand.Rand
		// wrapper (~48 B). Batch runs don't, so generators retained from
		// an earlier RunLoad on a reused instance are not charged to
		// them.
		b += int64(len(nw.gens)) * (int64(unsafe.Sizeof(epGen{})) + 48)
	}
	for _, pf := range nw.portFree {
		b += int64(len(pf)) * 8
	}
	b += int64(len(nw.injFree)+len(nw.ejFree)) * 8
	if nw.live != nil {
		b += nw.live.memoryBytes(nw.table)
	}
	return b
}

// PatternFunc maps a source endpoint to a destination endpoint for one
// message. It is called once per generated message.
type PatternFunc func(srcEP int, rng *rand.Rand) int

// RunLoad drives the open-loop experiment of §VI-C: every endpoint
// generates msgsPerEP messages with exponential inter-arrival times
// realizing the given offered load (fraction of endpoint injection
// bandwidth), destinations drawn from pattern. It returns the run
// statistics; the paper's headline metric is Stats.MaxLatency.
//
// Injection streams: each endpoint's cursor schedules only its next
// arrival, so the event queue holds one pending injection per endpoint
// instead of the whole run's message list, and memory scales with the
// in-flight packet population rather than total offered traffic. Every
// endpoint draws gaps and destinations from its own seeded RNG, so
// results are deterministic per seed.
func (nw *Network) RunLoad(pattern PatternFunc, load float64, msgsPerEP int) Stats {
	return nw.runLoad(pattern, nil, load, msgsPerEP)
}

// TimedPatternFunc maps a source endpoint to a destination endpoint for
// one message, like PatternFunc, but also sees the injection cycle —
// the workload analogue of a timed topology schedule (e.g. traffic that
// shifts phase every P cycles while the fabric rewires underneath it).
type TimedPatternFunc func(srcEP int, now int64, rng *rand.Rand) int

// RunLoadTimed is RunLoad for a time-varying traffic pattern. Event
// times are exact and every destination draw comes from the endpoint's
// private stream at the injection's cycle, so a timed pattern sees the
// same (endpoint, cycle) sequence for every Workers value.
func (nw *Network) RunLoadTimed(pattern TimedPatternFunc, load float64, msgsPerEP int) Stats {
	return nw.runLoad(nil, pattern, load, msgsPerEP)
}

// runLoad is the shared body of RunLoad and RunLoadTimed (exactly one
// of pattern/tpattern is non-nil): seed the per-endpoint injection
// streams on the views owning them, run, fold.
func (nw *Network) runLoad(pattern PatternFunc, tpattern TimedPatternFunc, load float64, msgsPerEP int) Stats {
	if load <= 0 || load > 1 {
		panic(fmt.Sprintf("simnet: offered load %v out of (0,1]", load))
	}
	nw.reset()
	nw.pattern = pattern
	nw.tpattern = tpattern
	nw.meanGap = float64(nw.cfg.PacketFlits) / load
	if nw.gens == nil {
		nw.gens = make([]epGen, nw.nep)
	}
	views := nw.begin(int64(msgsPerEP))
	for ep := range nw.gens {
		g := &nw.gens[ep]
		g.src.state = mixSeed(nw.cfg.Seed, int64(ep))
		if g.rng == nil {
			g.rng = rand.New(&g.src)
		}
		g.t = 0
		g.left = msgsPerEP
		if msgsPerEP > 0 {
			v := views[nw.par.shardOf[nw.routerOf(int32(ep))]]
			v.push(event{time: g.next(nw.gapOf(int32(ep))), at: int32(ep), kind: evInject})
		}
	}
	nw.drive(nw.cfg.Schedule.Cursor())
	return nw.fold()
}

// SaturationLoad estimates the saturation point of the network under a
// traffic pattern: the largest offered load whose tail (P99) latency
// stays below latencyFactor × the light-load (5%) tail latency, found
// by bisection to within tol. §VI-C observes saturation "at or beyond
// 70% of network capacity" for the studied topologies; this utility
// lets callers measure that knee directly. The tail statistic is used
// because over a finite horizon the mean lags the congestion collapse
// that the paper's max-time metric reflects.
func (nw *Network) SaturationLoad(pattern PatternFunc, msgsPerEP int, latencyFactor, tol float64) float64 {
	if latencyFactor <= 1 {
		latencyFactor = 3
	}
	if tol <= 0 {
		tol = 0.02
	}
	base := nw.RunLoad(pattern, 0.05, msgsPerEP).P99Latency
	if base <= 0 {
		return 0
	}
	limit := float64(base) * latencyFactor
	lo, hi := 0.05, 1.0
	probe := nw.RunLoad(pattern, hi, msgsPerEP)
	if probe.Delivered == 0 {
		// Nothing arrives at full load (dead or partitioned network):
		// the zero tail latency is meaningless, so don't compare it
		// against the limit — there is no knee to bisect for.
		return 0
	}
	if float64(probe.P99Latency) <= limit {
		return hi // never saturates in the modeled range
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if float64(nw.RunLoad(pattern, mid, msgsPerEP).P99Latency) <= limit {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Message is one rank-level transfer for batch (motif) runs, already
// mapped to endpoint ids.
type Message struct {
	SrcEP, DstEP int
}

// RunBatches drives the Ember-motif experiments of §VI-D: each round's
// messages are injected together at the round start, and the next round
// begins only when the previous one has fully drained (the global
// synchronization of the motif's communication phases). Returned
// Makespan spans all rounds; MeanLatency is the delivered-weighted mean
// over every round and P99Latency is the percentile of the pooled
// per-message latencies. Rounds run on the same engine as RunLoad: a
// message's canonical id is its index in the run's message sequence,
// so results are identical for every Workers value. It returns an
// error on an instance with a topology-event schedule: a motif round
// has no global clock the schedule could be pinned to (each round
// restarts at the previous drain point), so timed topology events are
// meaningless here.
func (nw *Network) RunBatches(rounds [][]Message) (Stats, error) {
	if len(nw.cfg.Schedule) > 0 {
		return Stats{}, fmt.Errorf("simnet: RunBatches does not support a topology-event schedule")
	}
	nw.reset()
	views := nw.begin(0)
	var clock, base int64
	skips := 0
	for _, round := range rounds {
		for i, m := range round {
			if m.SrcEP == m.DstEP || m.DstEP < 0 || m.DstEP >= nw.nep {
				skips++
				continue
			}
			src, dst := int32(m.SrcEP), int32(m.DstEP)
			v := views[nw.par.shardOf[nw.routerOf(src)]]
			v.stats.Offered++
			v.tenOffered(src)
			if nw.isDead(nw.routerOf(src)) || nw.isDead(nw.routerOf(dst)) {
				v.dropRun++
				continue
			}
			pi := v.newPacket(packet{
				srcEP:     src,
				dstEP:     dst,
				dstRouter: nw.routerOf(dst),
				interm:    -2,
				created:   clock,
			})
			v.newStream(pi, base+int64(i))
			v.inject(pi, clock)
		}
		base += int64(len(round))
		nw.drive(nw.cfg.Schedule.Cursor()) // empty: checked above
		for _, v := range views {
			clock = max(clock, v.stats.Makespan)
		}
		// Port/NIC state carries over naturally; subsequent rounds start
		// after the drain point.
		for r := range nw.portFree {
			for i := range nw.portFree[r] {
				nw.portFree[r][i] = max(nw.portFree[r][i], clock)
			}
		}
		for i := range nw.injFree {
			nw.injFree[i] = max(nw.injFree[i], clock)
			nw.ejFree[i] = max(nw.ejFree[i], clock)
		}
	}
	views[0].stats.PatternSkips += skips
	return nw.fold(), nil
}
