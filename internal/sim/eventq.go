package sim

import "math"

// Action is a schedulable unit of work. The engine accepts either a
// plain closure (Schedule/At) or an Action (ScheduleAction/AtAction);
// the latter is the allocation-free fast path: components keep a pool
// of structs implementing Action and reuse them across events, so the
// per-hop event traffic of a saturated simulation stops allocating a
// fresh closure per event.
type Action interface {
	// Do performs the event. It runs with the engine clock already
	// advanced to the event's timestamp.
	Do()
}

// funcAction adapts a closure to the Action interface. A func value is
// pointer-shaped, so the conversion stores it directly in the
// interface without a heap allocation.
type funcAction func()

func (f funcAction) Do() { f() }

// event is a scheduled callback. The logical dispatch order is
// (at, schedAt, seq) lexicographic: earlier timestamps first, equal
// timestamps in schedule-time order, FIFO among events scheduled at
// the same instant. Within one engine schedAt is nondecreasing in seq
// (the clock never runs backwards), so the order coincides with the
// (at, seq) order; the schedule distance in the key is what lets the
// engine's immediate FIFO (delay-0 events, distance 0) merge with
// queued events by one key comparison.
//
// The (schedAt, seq) tiebreak is packed into one word (see eventKey)
// so the struct stays at 32 bytes and the comparator at two integer
// compares: carrying schedAt as a third field measurably slowed the
// bucket sorts of saturated sequential runs (~20% wall time at 64
// switches).
type event struct {
	at  Time
	key uint64
	act Action
}

// eventKey packs (schedAt, seq) into a single uint64 that compares in
// (schedAt ascending, seq ascending) order among events with equal
// at: the high half holds the bit-inverted schedule distance
// at-schedAt (older schedAt → larger distance → smaller inverted
// half), the low half the engine's 32-bit sequence number.
//
// The distance saturates at MaxUint32 ns (~4.3 s of simulated time).
// Saturation preserves the exact dispatch order: within one engine
// schedAt is nondecreasing in seq, so ties created by the clamp fall
// back to seq, which already equals schedule order. Nothing in the
// model schedules seconds ahead — the clamp is a safety rail, not a
// working regime.
func eventKey(at, schedAt Time, seq uint64) uint64 {
	delta := uint64(at - schedAt)
	if delta > math.MaxUint32 {
		delta = math.MaxUint32
	}
	return uint64(^uint32(delta))<<32 | seq
}

// eventLess is the engine's total dispatch order: (at, schedAt, seq)
// lexicographic via the packed key. Sequence numbers are unique
// within an engine, so two distinct events never compare equal and
// every scheduler implementation must realize the exact same
// sequence.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// eventQueue is the scheduler contract the engine dispatches through.
// Implementations must dispatch in exact (at, seq) order — this is a
// correctness requirement, not an approximation: the determinism
// goldens hash entire experiment artifacts, so any reordering among
// equal timestamps or across bucket boundaries is a test failure.
//
// Two implementations exist: calendarQueue (the default, O(1)
// amortized for the short-horizon event traffic of a saturated
// subnet) and heapQueue (the O(log n) reference, also serving as the
// calendar's far-future overflow level). The differential property
// test and FuzzEventQueueOrdering drive both side by side.
type eventQueue interface {
	len() int
	push(event)
	pop() event
	// popAtMost pops and returns the earliest event if its timestamp is
	// at or before horizon; otherwise it leaves the queue untouched and
	// reports false. It combines the peekTime+pop pair the dispatch loop
	// would otherwise issue — for the calendar that is one cursor walk
	// instead of two per dispatched event.
	popAtMost(horizon Time) (event, bool)
	// popBefore pops and returns the earliest event if it orders
	// strictly before bound under the full (at, key) dispatch order.
	// The engine uses it to merge its immediate-event FIFO (see
	// Engine.imm) against the queue.
	popBefore(bound event) (event, bool)
	peekTime() Time
	// hasEventAt reports whether any pending event is scheduled at or
	// before t. Callers pass the engine clock mid-dispatch, so every
	// pending event satisfies at >= t and the probe is really "does
	// anything share the current timestamp" — which implementations can
	// answer without the full earliest-event search peekTime performs.
	hasEventAt(t Time) bool
}

// heapQueue is a binary min-heap of events ordered by (at, seq).
// It is hand-rolled rather than built on container/heap to avoid the
// interface boxing and indirect calls on the hot path: a saturated
// 64-switch simulation pushes and pops tens of millions of events.
type heapQueue struct {
	ev []event
}

func (q *heapQueue) len() int { return len(q.ev) }

func (q *heapQueue) less(i, j int) bool { return eventLess(q.ev[i], q.ev[j]) }

// push inserts an event and restores the heap property.
func (q *heapQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

// pop removes and returns the earliest event. It must not be called on
// an empty queue.
func (q *heapQueue) pop() event {
	top := q.ev[0]
	last := len(q.ev) - 1
	q.ev[0] = q.ev[last]
	q.ev[last] = event{} // release the action for GC
	q.ev = q.ev[:last]
	q.siftDown(0)
	return top
}

func (q *heapQueue) siftDown(i int) {
	n := len(q.ev)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			return
		}
		q.ev[i], q.ev[smallest] = q.ev[smallest], q.ev[i]
		i = smallest
	}
}

// peek returns the earliest event without removing it. It must not be
// called on an empty queue.
func (q *heapQueue) peek() event { return q.ev[0] }

// popAtMost pops the root if it is due at or before horizon.
func (q *heapQueue) popAtMost(horizon Time) (event, bool) {
	if len(q.ev) == 0 || q.ev[0].at > horizon {
		return event{}, false
	}
	return q.pop(), true
}

// popBefore pops the root if it orders strictly before bound.
func (q *heapQueue) popBefore(bound event) (event, bool) {
	if len(q.ev) == 0 || !eventLess(q.ev[0], bound) {
		return event{}, false
	}
	return q.pop(), true
}

// peekTime returns the timestamp of the earliest event, or Forever if
// the queue is empty.
func (q *heapQueue) peekTime() Time {
	if len(q.ev) == 0 {
		return Forever
	}
	return q.ev[0].at
}

// hasEventAt reports whether any event is scheduled at or before t —
// for the heap just a root inspection.
func (q *heapQueue) hasEventAt(t Time) bool {
	return len(q.ev) > 0 && q.ev[0].at <= t
}

// reset empties the heap for reuse, keeping the backing array.
func (q *heapQueue) reset() {
	clear(q.ev)
	q.ev = q.ev[:0]
}
