package sim

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

// event is a scheduled callback. The dispatch order is (at, seq)
// lexicographic: earlier timestamps first, equal timestamps in the
// order they were scheduled. seq is the engine's event counter, unique
// within an engine, so two distinct events never compare equal and
// every scheduler implementation must realize the exact same sequence.
// Within one engine the schedule time never decreases as seq grows
// (the clock never runs backwards), so among equal timestamps seq
// order is also schedule-time order.
type event struct {
	at  Time
	seq uint64
	act Action
}

// eventLess is the engine's total dispatch order: (at, seq).
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is the scheduler contract the engine dispatches through.
// Implementations must dispatch in exact (at, seq) order — this is a
// correctness requirement, not an approximation: any reordering among
// equal timestamps or across bucket boundaries fails the queue
// differentials and the experiment-level TestSchedulerOrderMatrix.
// (The default-mode determinism goldens alone cannot see a swap of
// same-timestamp events.)
//
// Two implementations exist: calendarQueue (the default, O(1)
// amortized for the short-horizon event traffic of a saturated
// subnet) and heapQueue (the O(log n) reference, also serving as the
// calendar's far-future overflow level). The differential property
// test and FuzzEventQueueOrdering drive both side by side, through
// these calls only.
type eventQueue interface {
	len() int
	push(event)
	// popAtMost pops and returns the earliest event if its timestamp is
	// at or before horizon; otherwise it reports false. The dispatch
	// loop pops every queue event through it: with its Run horizon, and
	// with Forever in Step.
	popAtMost(horizon Time) (event, bool)
	// hasEventAt reports whether any pending event is scheduled at or
	// before t, without moving the queue. Callers pass the engine clock
	// mid-dispatch, so every pending event satisfies at >= t and the
	// probe is really "does anything share the current timestamp".
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
