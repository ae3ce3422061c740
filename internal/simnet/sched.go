package simnet

import "math/bits"

// scheduler is the event queue of the run loop: a calendar queue
// (time wheel) of one-cycle buckets over a sliding window of wheelSize
// cycles, backed by a binary min-heap for events beyond the horizon.
//
// The model schedules almost every event a few tens of cycles ahead
// (serialization + link latency), so the wheel turns push and pop into
// O(1) bucket appends and bitmap scans instead of the O(log n) sift of
// a global heap over every in-flight event. Far-future events — hops
// queued behind deep output-port backlogs, light-load injection gaps
// longer than the window — overflow to the heap and migrate into the
// wheel as the cursor advances past their horizon.
//
// Ordering contract. Events pop in nondecreasing time, and the
// arrivals at each router pop in (time, seq) order, where seq is the
// event's canonical key (parallel.go). Nothing else is ordered: within
// a cycle, events at different routers pop in whatever order they were
// pushed. An arrival handler touches only its own router's ports, the
// ejection ports of that router's endpoints, its own packet and routing
// stream and commutative counters; an injection touches only its
// endpoint, which has exactly one pending injection; a delivery touches
// only commutative counters. Any cross-router interleaving of one cycle
// therefore yields the same statistics as the total (time, seq) order —
// the argument that also makes results shard-invariant.
//
// A non-empty bucket holds events of exactly one absolute time (two
// times congruent mod wheelSize are ≥ wheelSize apart, so they can
// never share the window), so only the order within a bucket needs
// care. A push that lands an arrival behind a larger arrival key of the
// same bucket marks the bucket unordered, and routerOrder fixes each
// router's subsequence in place, in one pass, when the bucket is next
// popped. Buckets filled in order are never reordered.
type scheduler struct {
	// cur is the time cursor: every popped event had time ≤ cur, every
	// queued event has time ≥ cur, and the wheel window is
	// [cur, cur+wheelSize).
	cur    int64
	count  int // total queued events (wheel + overflow)
	wcount int // events currently in the wheel

	buckets  [][]event // wheelSize buckets of one cycle each
	bhead    []int32   // per-bucket FIFO head (consumed prefix)
	occ      []uint64  // occupancy bitmap over the buckets
	unord    []uint64  // buckets holding a push that arrived out of order
	overflow eventQueue

	// Router-order scratch (engine state, not charged to MemoryBytes):
	// amax is each bucket's largest arrival key since it was last empty;
	// stamp/last are each router's routerOrder pass and bucket position
	// of its latest arrival in that pass; prev chains every arrival's
	// position to the previous one of the same router.
	amax  []int64
	stamp []uint32
	last  []int32
	prev  []int32
	epoch uint32
}

const (
	wheelBits  = 11
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// reset prepares the scheduler for a new run over the given number of
// routers, retaining bucket and heap capacity from earlier runs of the
// same Network.
func (s *scheduler) reset(routers int) {
	if s.buckets == nil {
		s.buckets = make([][]event, wheelSize)
		s.bhead = make([]int32, wheelSize)
		s.occ = make([]uint64, wheelWords)
		s.unord = make([]uint64, wheelWords)
		s.amax = make([]int64, wheelSize)
	}
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
		s.bhead[i] = 0
	}
	clear(s.occ)
	clear(s.unord)
	s.overflow = s.overflow[:0]
	s.cur, s.count, s.wcount = 0, 0, 0
	if len(s.stamp) != routers {
		s.stamp = make([]uint32, routers)
		s.last = make([]int32, routers)
		s.epoch = 0
	}
}

// push queues an event. The run loop never schedules into the past;
// the clamp keeps a (hypothetical) stale timestamp from aliasing onto
// a future bucket a full window away.
func (s *scheduler) push(e event) {
	if e.time < s.cur {
		e.time = s.cur
	}
	s.count++
	if e.time < s.cur+wheelSize {
		s.bucketPush(e)
		return
	}
	s.overflow.push(e)
}

func (s *scheduler) bucketPush(e event) {
	b := int(e.time & wheelMask)
	bk := s.buckets[b]
	n := len(bk)
	if n == 0 {
		s.occ[b>>6] |= 1 << uint(b&63)
		s.amax[b] = -1 // keys are nonnegative
	}
	if e.kind == evArrive {
		if s.amax[b] > e.seq {
			s.unord[b>>6] |= 1 << uint(b&63)
		} else {
			s.amax[b] = e.seq
		}
	}
	s.buckets[b] = append(bk, e)
	s.wcount++
}

// migrate drains overflow events that the advancing window now covers
// into their buckets. It must run every time cur advances (each event
// migrates at most once, so the cost is amortized O(1) per event).
func (s *scheduler) migrate() {
	for len(s.overflow) > 0 && s.overflow[0].time < s.cur+wheelSize {
		s.bucketPush(s.overflow.pop())
	}
}

// nextOccupied returns the bucket of the earliest queued wheel event,
// scanning the occupancy bitmap from the cursor position (wrapping:
// bucket indices below cur&wheelMask hold later absolute times).
func (s *scheduler) nextOccupied() int {
	start := int(s.cur & wheelMask)
	w := start >> 6
	word := s.occ[w] &^ (1<<uint(start&63) - 1)
	for i := 0; ; i++ {
		if word != 0 {
			return (w<<6 + bits.TrailingZeros64(word)) & wheelMask
		}
		w = (w + 1) % wheelWords
		word = s.occ[w]
		if i > wheelWords {
			panic("simnet: scheduler bitmap lost an occupied bucket")
		}
	}
}

// popBefore pops the next event (see the ordering contract) only if
// its time lies before end, and returns nil otherwise. It is the fused
// peek+pop of the run loop's windows: one bitmap scan decides and
// extracts. A failed attempt may still advance the cursor to the
// earliest queued time, which preserves every invariant (cur never
// exceeds a queued event's time).
//
// The event is returned by reference into its bucket and stays valid
// until the next push; the caller copies it before handling it.
// Returning the 40-byte event by value instead makes the caller reload
// it as wide words right after takeFrom stored it as narrow fields — a
// store-to-load-forwarding stall on every pop.
func (s *scheduler) popBefore(end int64) *event {
	if s.count == 0 {
		return nil
	}
	if s.wcount == 0 {
		if s.overflow[0].time >= end {
			return nil
		}
		s.cur = s.overflow[0].time
		s.migrate()
	}
	b := s.nextOccupied()
	t := s.cur + (int64(b)-s.cur)&wheelMask
	if t >= end {
		return nil
	}
	if t > s.cur {
		s.cur = t
		s.migrate()
	}
	return s.takeFrom(b)
}

// takeFrom extracts the next event of bucket b, which the caller has
// established is the head bucket of the wheel, ordering the bucket's
// unconsumed suffix first if a push left it unordered.
func (s *scheduler) takeFrom(b int) *event {
	bk := s.buckets[b]
	h := s.bhead[b]
	if w, bit := b>>6, uint64(1)<<uint(b&63); s.unord[w]&bit != 0 {
		s.routerOrder(bk[h:])
		s.unord[w] &^= bit
	}
	s.bhead[b] = h + 1
	if int(h)+1 == len(bk) {
		s.buckets[b] = bk[:0]
		s.bhead[b] = 0
		s.occ[b>>6] &^= 1 << uint(b&63)
	}
	s.count--
	s.wcount--
	return &bk[h]
}

// routerOrder puts the arrivals of each router in es into seq order,
// leaving every other event, and the set of positions each router's
// arrivals occupy, where they are. One pass chains each arrival to the
// previous arrival of its router (stamp/last, reset lazily by epoch)
// and insertion-sorts it backwards along that chain, so the cost is
// O(len(es)) plus the displacement within each router's chain —
// typically one to three events long.
func (s *scheduler) routerOrder(es []event) {
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	if cap(s.prev) < len(es) {
		s.prev = make([]int32, len(es), 2*len(es))
	}
	prev := s.prev[:len(es)]
	for i := range es {
		if es[i].kind != evArrive {
			continue
		}
		r := es[i].at
		if s.stamp[r] != s.epoch {
			s.stamp[r] = s.epoch
			s.last[r] = int32(i)
			prev[i] = -1
			continue
		}
		j := s.last[r]
		prev[i] = j
		s.last[r] = int32(i)
		if es[j].seq < es[i].seq {
			continue
		}
		e := es[i]
		k := int32(i)
		for ; j >= 0 && es[j].seq > e.seq; j = prev[j] {
			es[k] = es[j]
			k = j
		}
		es[k] = e
	}
}

// peekTime returns the time of the earliest queued event without
// popping it, or math.MaxInt64 when the queue is empty. The barrier
// loop of the parallel simulator uses it to pick the next global
// window start.
func (s *scheduler) peekTime() int64 {
	if s.count == 0 {
		return int64(^uint64(0) >> 1) // math.MaxInt64
	}
	if s.wcount == 0 {
		return s.overflow[0].time
	}
	b := s.nextOccupied()
	return s.cur + (int64(b)-s.cur)&wheelMask
}

// wheelBytes is the scheduler's fixed structure: bucket slice
// headers, FIFO heads and the two bitmaps. Queued events are charged
// separately, from the run's peak pending-event count (see
// Network.MemoryBytes); the router-order scratch is engine state and
// is not charged.
const wheelBytes = wheelSize*(24+4) + 2*wheelWords*8
