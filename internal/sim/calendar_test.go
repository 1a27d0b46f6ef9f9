package sim

import (
	"cmp"
	"slices"
	"testing"
)

// randomBucket fills one bucket the way the queue does: appends in seq
// order, schedAt never decreasing, every at inside the bucket's window
// and at or after its schedAt. With sorted set the ats also arrive in
// non-decreasing order, so sortBucket must take its early exit.
func randomBucket(r *RNG, width Time, sorted bool) []event {
	base := 100 * width
	n := r.Intn(200)
	s := make([]event, 0, n)
	schedAt := base - Time(r.Intn(1000))
	at := base
	for seq := 0; seq < n; seq++ {
		if r.Intn(4) == 0 {
			schedAt = min(schedAt+Time(r.Intn(3)), base+width-1)
		}
		lo := max(schedAt, base)
		switch {
		case sorted:
			at = max(at, lo) + Time(r.Intn(2))
			at = min(at, base+width-1)
		case r.Intn(3) == 0:
			// leave at as it is: a run of equal timestamps
		default:
			at = lo + Time(r.Intn(int(base+width-lo)))
		}
		at = max(at, lo)
		s = append(s, event{at: at, seq: uint64(seq), act: nopAction{}})
	}
	return s
}

// TestSortBucketMatchesFullKeySort checks the counting sort against a
// comparison sort on the full (at, seq) key, for every bucket
// width from 1 to 64 ns, on buckets built under the append-order
// invariant. Already-sorted buckets must be left in place; sorted ones
// must leave no action behind in the scratch buffer they trade with.
func TestSortBucketMatchesFullKeySort(t *testing.T) {
	r := NewRNG(5)
	for wb := uint(0); wb <= maxWidthBits; wb++ {
		q := newCalendarQueue(4, wb)
		for trial := 0; trial < 300; trial++ {
			sorted := trial%3 == 0
			s := randomBucket(r, q.width(), sorted)
			want := slices.Clone(s)
			slices.SortFunc(want, func(a, b event) int {
				if eventLess(a, b) {
					return -1
				}
				return 1
			})
			if sorted && !slices.Equal(s, want) {
				t.Fatalf("width %d trial %d: sorted fixture is not in dispatch order", q.width(), trial)
			}
			inOrder := slices.IsSortedFunc(s, func(a, b event) int { return cmp.Compare(a.at, b.at) })
			q.slots[1] = s
			q.sortBucket(1)
			got := q.slots[1]
			if !slices.Equal(got, want) {
				t.Fatalf("width %d trial %d: counting sort differs from full-key sort", q.width(), trial)
			}
			if inOrder && len(s) > 0 && &got[0] != &s[0] {
				t.Fatalf("width %d trial %d: an already-sorted bucket was copied", q.width(), trial)
			}
			for _, e := range q.scratch[:cap(q.scratch)] {
				if e.act != nil {
					t.Fatalf("width %d trial %d: scratch keeps a stale action", q.width(), trial)
				}
			}
			q.slots[1] = nil
		}
	}
}

// TestSortBucketZeroAllocsWarm gates the counting path: a warm engine
// whose buckets arrive out of order sorts them without allocating.
func TestSortBucketZeroAllocsWarm(t *testing.T) {
	e := NewEngine()
	q := e.queue.(*calendarQueue)
	a := &countAction{}
	e.AtAction(0, a)
	e.AtAction(1<<40, a) // parked in the overflow, so the wheel never rebases
	e.Step()
	offsets := []Time{3, 1, 2, 0, 3, 1, 0, 2}
	cycle := func() {
		// Two buckets ahead of the cursor, so pushes append unsorted.
		base := e.Now()&^(q.width()-1) + 2*q.width()
		for _, d := range offsets {
			e.AtAction(base+d, a)
		}
		for range offsets {
			e.Step()
		}
	}
	cycle()
	if cap(q.scratch) == 0 {
		t.Fatal("the warm-up cycle did not take the counting-sort path")
	}
	if allocs := mallocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("warm counting sort allocates %v objects, want 0", allocs)
	}
}

// TestWheelWidthCapped pins the 64 ns bucket cap: an explicit wider
// geometry panics.
func TestWheelWidthCapped(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithWheelGeometry accepted 128 ns buckets")
		}
	}()
	WithWheelGeometry(4, maxWidthBits+1)
}
