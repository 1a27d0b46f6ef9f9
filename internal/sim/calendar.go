package sim

// Calendar-queue geometry defaults. Network DES event traffic is
// short-horizon and bounded-increment — a hop schedules events at most
// routing + propagation + serialization time ahead, 1,224 ns for a
// 256 B packet — so a wheel covering a few dozen hop-times catches
// essentially every push. The default wheel spans 32,768 ns, about 27
// hop-times; no other geometry measured ran the fabric faster
// (EXPERIMENTS.md, "Wheel geometry").
const (
	defaultSlotBits  = 12 // 4096 buckets
	defaultWidthBits = 3  // 8 ns per bucket

	// maxWidthBits caps a bucket at 64 ns, the size of the counting
	// sort's per-offset table (see sortBucket).
	maxWidthBits = 6
)

// calendarQueue is the engine's default scheduler: a two-level
// calendar queue (near-future timing wheel + far-future overflow
// heap) with the binary heap's exact (at, seq) dispatch order.
//
// Level 1 is a power-of-two ring of fixed-width time buckets covering
// the window [curStart, curStart+span). A push inside the window
// appends to its bucket in O(1); the cursor advances bucket by bucket
// as the clock does, sorting each bucket once on entry with a counting
// sort on the offset inside the bucket (see sortBucket). The bucket
// under the cursor is the only one kept sorted while events arrive:
// delay-0 and other same-bucket reschedules binary-insert into the
// undrained remainder. Drained bucket backing arrays go to a
// freelist and are handed to whichever bucket fills next, so a warm
// queue allocates nothing as the cursor rotates into fresh time
// territory.
//
// Level 2 is a plain binary heap holding events beyond the window
// (exponential inter-arrival tails, reconfiguration timers). popAtMost
// always compares the wheel's next event against the overflow minimum
// under the full (at, seq) order, so correctness never
// depends on which level holds an event; when the wheel empties the
// queue re-bases the window at the overflow minimum and migrates the
// new window in, restoring O(1) service. The cursor never passes the
// overflow minimum (see nextWheel), and an empty queue keeps its
// window where the clock left it, so in-window pushes are the common
// case even for runs whose first push is a far-future timer (a fault
// campaign's first flap). One case remains: the dispatch loop's
// horizon check may park the cursor ahead of the engine clock (next
// event far away, Run horizon hit first), after which a push may land
// *behind* the cursor — such events route to the overflow and still
// dispatch in exact order.
type calendarQueue struct {
	slots   [][]event // power-of-two ring of buckets
	free    [][]event // drained bucket backings, reused by appendSlot
	scratch []event   // sortBucket's output buffer, trades places with the bucket it sorts

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

// popAtMost pops the earliest event if due at or before horizon, in
// one cursor walk.
func (q *calendarQueue) popAtMost(horizon Time) (event, bool) {
	if !q.nextWheel() {
		if q.overflow.len() == 0 || q.overflow.peekTime() > horizon {
			return event{}, false
		}
		if q.count > 0 {
			return q.overflow.pop(), true
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

// hasEventAt reports whether any pending event is scheduled at or
// before t, WITHOUT advancing the cursor — the dispatch loop probes it
// once per immediate event, and paying nextWheel's empty-bucket walk
// there would double the scan work per event. The engine passes its
// clock, and no pending event predates it. The cursor sits on the
// clock's bucket, or ahead of it once a Run horizon parked it there;
// it is never behind, because every pop leaves it on or after the
// popped event's bucket. Pushes behind a parked cursor go to the
// overflow, and every other wheel bucket starts after the cursor's.
// So a wheel event at or before t can only be the head of the cursor
// bucket, whose undrained remainder is kept sorted.
func (q *calendarQueue) hasEventAt(t Time) bool {
	if q.overflow.len() > 0 && q.overflow.peekTime() <= t {
		return true
	}
	s := q.slots[q.cur]
	return q.head < len(s) && s[q.head].at <= t
}

// nextWheel parks the cursor on the bucket holding the earliest wheel
// event, sorting it on entry, and reports whether it did. It reports
// false when the wheel is empty, and when the walk reaches a bucket
// that starts after the overflow minimum: the cursor then stays where
// it is, and that minimum precedes every wheel event. Stopping there
// keeps the cursor from passing the time of an event still to
// dispatch, so the pushes made once the clock reaches it land on the
// wheel rather than behind the cursor. Advancing past empty buckets is
// amortized against the clock advance that made them reachable.
func (q *calendarQueue) nextWheel() bool {
	if q.count == 0 {
		return false
	}
	for q.head >= len(q.slots[q.cur]) {
		next := q.curStart + q.width()
		if q.overflow.len() > 0 && q.overflow.peekTime() < next {
			return false
		}
		q.head = 0
		q.cur = (q.cur + 1) & q.mask
		q.curStart = next
		if len(q.slots[q.cur]) > 0 {
			q.sortBucket(q.cur)
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
// the largest seq issued so far, so among equal timestamps it lands
// after every incumbent; the binary search on the full (at, seq)
// order places it exactly either way.
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

// sortBucket puts bucket i in dispatch order with a stable counting
// sort on at's offset inside the bucket, O(n + width). Ordering by at
// alone is exact because of the append-order invariant: events that
// share a timestamp already sit in seq order. Pushes append in seq
// order, and migrate appends heap pops in ascending order (it runs
// only on an empty wheel, so no pushed event precedes them in a
// bucket). A bucket already non-decreasing in at is left as it is.
// Otherwise the sorted copy goes to the scratch buffer, which then
// takes the bucket's place; the old backing, cleared of its actions,
// becomes the next scratch, so a warm queue sorts without allocating.
func (q *calendarQueue) sortBucket(i int) {
	s := q.slots[i]
	j := 1
	for j < len(s) && s[j-1].at <= s[j].at {
		j++
	}
	if j == len(s) {
		return
	}
	mask := q.width() - 1
	var pos [1 << maxWidthBits]int32
	for k := range s {
		pos[s[k].at&mask]++
	}
	var sum int32
	for k, c := range pos[:mask+1] {
		pos[k] = sum
		sum += c
	}
	out := q.scratch
	if cap(out) < len(s) {
		out = make([]event, len(s), cap(s))
	}
	out = out[:len(s)]
	for k := range s {
		o := s[k].at & mask
		out[pos[o]] = s[k]
		pos[o]++
	}
	clear(s)
	q.scratch = s[:0]
	q.slots[i] = out
}
