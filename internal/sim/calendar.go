package sim

import "slices"

// Calendar-queue geometry defaults. Network DES event traffic is
// short-horizon and bounded-increment — a hop schedules events at most
// routing + propagation + serialization time ahead — so a wheel
// covering a few dozen hop-times catches essentially every push.
// NewNetwork widens the buckets via WithSpanHint to match its link
// timing; these defaults stand alone for bare engines in tests.
const (
	defaultSlotBits  = 12 // 4096 buckets
	defaultWidthBits = 2  // 4 ns per bucket
)

// calendarQueue is the engine's default scheduler: a two-level
// calendar queue (near-future timing wheel + far-future overflow
// heap) with the binary heap's exact (at, seq) dispatch order.
//
// Level 1 is a power-of-two ring of fixed-width time buckets covering
// the window [curStart, curStart+span). A push inside the window
// appends to its bucket in O(1); the cursor advances bucket by bucket
// as the clock does, sorting each bucket once on entry (events with
// equal timestamps arrive in seq order, so the common width-1-ish
// bucket is already sorted and the sort is a linear scan). The bucket
// under the cursor is the only one kept sorted while events arrive:
// delay-0 and other same-bucket reschedules binary-insert into the
// undrained remainder. Drained bucket backing arrays go to a
// freelist and are handed to whichever bucket fills next, so a warm
// queue allocates nothing as the cursor rotates into fresh time
// territory.
//
// Level 2 is a plain binary heap holding events beyond the window
// (exponential inter-arrival tails, reconfiguration timers). pop and
// peekTime always compare the wheel's next event against the overflow
// minimum under the full (at, seq) order, so correctness never
// depends on which level holds an event; when the wheel empties the
// queue re-bases the window at the overflow minimum and migrates the
// new window in, restoring O(1) service. The compare also covers a
// subtle case: peekTime may park the cursor ahead of the engine
// clock (next event far away, Run horizon hit first), after which a
// push may land *behind* the cursor — such events route to the
// overflow and still dispatch in exact order.
type calendarQueue struct {
	slots [][]event // power-of-two ring of buckets
	free  [][]event // drained bucket backings, reused by appendSlot

	mask      int
	slotBits  uint
	widthBits uint

	cur      int  // bucket the cursor is parked on
	curStart Time // inclusive start of slots[cur]'s time window
	head     int  // drain position inside slots[cur]
	count    int  // events currently stored in the wheel

	overflow heapQueue
}

func newCalendarQueue(slotBits, widthBits uint) *calendarQueue {
	return &calendarQueue{
		slots:     make([][]event, 1<<slotBits),
		mask:      1<<slotBits - 1,
		slotBits:  slotBits,
		widthBits: widthBits,
	}
}

func (q *calendarQueue) width() Time { return 1 << q.widthBits }
func (q *calendarQueue) span() Time  { return 1 << (q.widthBits + q.slotBits) }

func (q *calendarQueue) len() int { return q.count + q.overflow.len() }

// slotIndex maps an absolute time to its bucket. curStart is always
// bucket-aligned, so the window maps bijectively onto the ring.
func (q *calendarQueue) slotIndex(t Time) int { return int(t>>q.widthBits) & q.mask }

func (q *calendarQueue) push(e event) {
	if q.count == 0 && q.overflow.len() == 0 {
		// Empty queue: park the window at the event so a lone
		// far-future timer does not detour through the overflow.
		q.rebase(e.at)
	}
	if e.at >= q.curStart && e.at-q.curStart < q.span() {
		if i := q.slotIndex(e.at); i != q.cur {
			q.appendSlot(i, e)
		} else {
			q.insertCurrent(e)
		}
		q.count++
		return
	}
	q.overflow.push(e)
}

func (q *calendarQueue) pop() event {
	if !q.nextWheel() {
		q.migrate() // empty-queue pops panic here, same contract as the heap
	}
	s := q.slots[q.cur]
	e := s[q.head]
	if q.overflow.len() > 0 {
		if o := q.overflow.peek(); eventLess(o, e) {
			return q.overflow.pop()
		}
	}
	q.dropHead(s)
	return e
}

// popAtMost pops the earliest event if due at or before horizon, in
// one cursor walk — the dispatch loop's peekTime and pop combined.
func (q *calendarQueue) popAtMost(horizon Time) (event, bool) {
	if !q.nextWheel() {
		if q.overflow.len() == 0 || q.overflow.peekTime() > horizon {
			return event{}, false
		}
		q.migrate()
	}
	s := q.slots[q.cur]
	e := s[q.head]
	if q.overflow.len() > 0 {
		if o := q.overflow.peek(); eventLess(o, e) {
			if o.at > horizon {
				return event{}, false
			}
			return q.overflow.pop(), true
		}
	}
	if e.at > horizon {
		return event{}, false
	}
	q.dropHead(s)
	return e, true
}

// popBefore pops the earliest event if it orders strictly before bound
// under the full dispatch order. The engine calls it only when
// hasEventAt says something shares the current timestamp, so the
// cursor work here is the same walk the following pop would do anyway.
func (q *calendarQueue) popBefore(bound event) (event, bool) {
	if !q.nextWheel() {
		if q.overflow.len() == 0 || !eventLess(q.overflow.peek(), bound) {
			return event{}, false
		}
		q.migrate()
	}
	s := q.slots[q.cur]
	e := s[q.head]
	if q.overflow.len() > 0 {
		if o := q.overflow.peek(); eventLess(o, e) {
			if !eventLess(o, bound) {
				return event{}, false
			}
			return q.overflow.pop(), true
		}
	}
	if !eventLess(e, bound) {
		return event{}, false
	}
	q.dropHead(s)
	return e, true
}

// dropHead consumes the cursor bucket's head slot after its event has
// been read out, recycling the bucket backing once drained.
func (q *calendarQueue) dropHead(s []event) {
	s[q.head] = event{} // release the action for GC
	q.head++
	if q.head == len(s) {
		q.slots[q.cur] = nil
		q.free = append(q.free, s[:0])
		q.head = 0
	}
	q.count--
}

func (q *calendarQueue) peekTime() Time {
	if !q.nextWheel() {
		if q.overflow.len() == 0 {
			return Forever
		}
		q.migrate()
	}
	t := q.slots[q.cur][q.head].at
	if q.overflow.len() > 0 {
		if o := q.overflow.peekTime(); o < t {
			t = o
		}
	}
	return t
}

// hasEventAt reports whether any pending event is scheduled at or
// before t, WITHOUT advancing the cursor — the dispatch loop probes it
// once per immediate event, and paying nextWheel's empty-bucket walk
// there would double the scan work per event. Under the interface
// precondition (no pending event predates t), an event at <= t can
// only be the overflow minimum or live in the one wheel bucket whose
// window contains t: buckets behind the cursor were drained before the
// cursor passed them, pushes behind a parked cursor route to the
// overflow, and ring-aliased occupants of slotIndex(t) carry at >= t +
// span, which the explicit at <= t filter rejects. The cursor bucket's
// undrained remainder is kept sorted, so there a head inspection
// suffices; any other bucket is unsorted and scanned whole (buckets
// hold a handful of events at steady state).
func (q *calendarQueue) hasEventAt(t Time) bool {
	if q.overflow.len() > 0 && q.overflow.peekTime() <= t {
		return true
	}
	if q.count == 0 {
		return false
	}
	i := q.slotIndex(t)
	s := q.slots[i]
	if i == q.cur {
		return q.head < len(s) && s[q.head].at <= t
	}
	for j := range s {
		if s[j].at <= t {
			return true
		}
	}
	return false
}

// nextWheel parks the cursor on the bucket holding the earliest wheel
// event, sorting it on entry, and reports whether the wheel holds any
// event at all. Advancing past empty buckets is amortized against the
// clock advance that made them reachable.
func (q *calendarQueue) nextWheel() bool {
	if q.count == 0 {
		return false
	}
	for q.head >= len(q.slots[q.cur]) {
		q.head = 0
		q.cur = (q.cur + 1) & q.mask
		q.curStart += q.width()
		if s := q.slots[q.cur]; len(s) > 0 {
			sortEvents(s)
			break
		}
	}
	return true
}

// migrate re-bases the empty wheel at the overflow minimum and pulls
// every overflow event inside the new window into its bucket. Heap
// pops arrive in ascending (at, seq) order, so the per-bucket appends
// stay sorted without extra work.
func (q *calendarQueue) migrate() {
	first := q.overflow.pop()
	q.rebase(first.at)
	q.appendSlot(q.cur, first)
	q.count++
	horizon := q.curStart + q.span()
	if horizon < q.curStart {
		horizon = Forever // alignment overflow near the end of time
	}
	for q.overflow.len() > 0 && q.overflow.peekTime() < horizon {
		e := q.overflow.pop()
		q.appendSlot(q.slotIndex(e.at), e)
		q.count++
	}
}

// rebase parks the cursor on the bucket containing t. The wheel must
// be empty: buckets behind the new cursor would otherwise alias onto
// wrong times.
func (q *calendarQueue) rebase(t Time) {
	q.cur = q.slotIndex(t)
	q.curStart = t &^ (q.width() - 1)
	q.head = 0
}

// appendSlot appends to bucket i, drawing backing storage from the
// freelist of drained buckets so the warm steady state never
// allocates.
func (q *calendarQueue) appendSlot(i int, e event) {
	s := q.slots[i]
	if cap(s) == 0 {
		if n := len(q.free) - 1; n >= 0 {
			s = q.free[n]
			q.free = q.free[:n]
		}
	}
	q.slots[i] = append(s, e)
}

// insertCurrent places e at its sorted position within the undrained
// remainder of the cursor bucket. A locally scheduled event carries
// the largest (schedAt, seq) issued so far, so among equal timestamps
// it lands after every incumbent; the binary search on the full
// (at, schedAt, seq) order places it exactly either way.
func (q *calendarQueue) insertCurrent(e event) {
	s := q.slots[q.cur]
	lo, hi := q.head, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventLess(e, s[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	q.appendSlot(q.cur, event{})
	s = q.slots[q.cur]
	copy(s[lo+1:], s[lo:len(s)-1])
	s[lo] = e
}

// sortEvents orders a bucket by (at, schedAt, seq). Keys are unique, so an
// unstable sort yields the exact dispatch order. Buckets fill in seq
// order and mostly in at order, a pattern pdqsort handles in near
// linear time; the call allocates nothing.
func sortEvents(s []event) {
	slices.SortFunc(s, func(a, b event) int {
		if eventLess(a, b) {
			return -1
		}
		return 1
	})
}

// prealloc seeds the bucket freelist and the overflow so roughly n
// standing events fit without growth. The chunks share one backing
// allocation; a bucket outgrowing its chunk falls back to append's
// usual regrow. No-op on storage that is already warm (e.g. a queue
// recycled through a QueueArena).
func (q *calendarQueue) prealloc(n int) {
	if len(q.free) > 0 || cap(q.overflow.ev) > 0 {
		return
	}
	const chunk = 64
	chunks := (n + chunk - 1) / chunk
	if chunks > 256 {
		chunks = 256
	}
	backing := make([]event, chunks*chunk)
	for c := 0; c < chunks; c++ {
		q.free = append(q.free, backing[c*chunk:c*chunk:(c+1)*chunk])
	}
	q.overflow.ev = make([]event, 0, n/4+16)
}

// reset empties the queue for reuse, keeping every backing array (the
// per-bucket slices, the freelist and the overflow heap's array).
func (q *calendarQueue) reset() {
	for i, s := range q.slots {
		if len(s) > 0 {
			clear(s) // release actions for GC
			q.slots[i] = s[:0]
		}
	}
	q.cur = 0
	q.curStart = 0
	q.head = 0
	q.count = 0
	q.overflow.reset()
}
