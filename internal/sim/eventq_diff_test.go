package sim

import (
	"fmt"
	"testing"
)

// nopAction is a placeholder payload for queue-level tests.
type nopAction struct{}

func (nopAction) Do() {}

// driveQueues interprets program as a push/pop script and drives a
// calendar queue and the reference heap side by side through the two
// calls the engine makes: before every pop it compares len and
// hasEventAt(now), and it pops only through popAtMost, failing at the
// first divergence. Opcodes (program[i]%10) are chosen to hit the
// calendar's edge geometry: equal-timestamp FIFO runs, bucket-boundary
// times, horizon-exact and far-future pushes (overflow), drain/refill
// cycles, Run horizons that stop short of the next event, and the
// engine's immediate merge. Pushes respect the engine contract (never
// before the last popped timestamp).
//
// It also checks where each push lands: the cursor stays on the bucket
// of the last popped timestamp, so a push lands on the wheel unless it
// is at least one span past that bucket's start. A cursor that ran
// ahead of the clock would send near pushes to the overflow instead.
// A pop that pops nothing may park the cursor ahead of the clock, as a
// Run horizon does; the check is suspended until a pop leaves the
// cursor on the clock's bucket again.
func driveQueues(program []byte, slotBits, widthBits uint) error {
	wheel := newCalendarQueue(slotBits, widthBits)
	heap := &heapQueue{}
	width := Time(1) << widthBits
	span := Time(1) << (widthBits + slotBits)
	var now Time
	var seq uint64
	parked := false

	push := func(at Time) error {
		e := event{at: at, seq: seq, act: nopAction{}}
		seq++
		before := wheel.count
		wheel.push(e)
		heap.push(e)
		onWheel := wheel.count > before
		if want := at < now&^(width-1)+span; !parked && onWheel != want {
			return fmt.Errorf("push at %v with the clock at %v: on the wheel %v, want %v (cursor bucket starts at %v)",
				at, now, onWheel, want, wheel.curStart)
		}
		return nil
	}
	hasEventAt := func() (bool, error) {
		if wheel.len() != heap.len() {
			return false, fmt.Errorf("len: wheel %d, heap %d", wheel.len(), heap.len())
		}
		hw, hh := wheel.hasEventAt(now), heap.hasEventAt(now)
		if hw != hh {
			return false, fmt.Errorf("hasEventAt(%v): wheel %v, heap %v", now, hw, hh)
		}
		return hw, nil
	}
	pop := func(horizon Time) error {
		if _, err := hasEventAt(); err != nil {
			return err
		}
		w, okW := wheel.popAtMost(horizon)
		h, okH := heap.popAtMost(horizon)
		if okW != okH || w.at != h.at || w.seq != h.seq {
			return fmt.Errorf("popAtMost(%v): wheel (%v, %d, %v), heap (%v, %d, %v)",
				horizon, w.at, w.seq, okW, h.at, h.seq, okH)
		}
		if okW {
			now = w.at
		}
		if !okW || parked {
			parked = wheel.curStart != now&^(width-1)
		}
		return nil
	}

	for i := 0; i+1 < len(program); i += 2 {
		op, arg := program[i]%10, Time(program[i+1])
		var err error
		switch op {
		case 0: // near future, inside the window
			err = push(now + arg)
		case 1: // equal timestamps — FIFO among them
			err = push(now)
		case 2: // bucket boundary at/above now
			err = push((now+width-1)/width*width + arg*width)
		case 3: // horizon-exact: first time outside the window
			err = push(now + span)
		case 4: // far future — overflow territory
			err = push(now + span + arg*977)
		case 5: // medium spread, crosses several buckets
			err = push(now + arg*arg)
		case 6:
			err = pop(Forever)
		case 7: // drain burst
			for j := 0; j < int(arg) && err == nil; j++ {
				err = pop(Forever)
			}
		case 8: // a Run horizon, which may stop short of the next event
			err = pop(now + arg)
		case 9: // the immediate merge: pop at the clock when hasEventAt says so
			var due bool
			if due, err = hasEventAt(); due {
				err = pop(now)
			}
		}
		if err != nil {
			return err
		}
	}
	for heap.len() > 0 {
		if err := pop(Forever); err != nil {
			return err
		}
	}
	if wheel.len() != 0 {
		return fmt.Errorf("wheel holds %d events after full drain", wheel.len())
	}
	return nil
}

// TestEventQueueDifferential is the scheduler equivalence property
// test: randomized adversarial programs through every geometry from a
// tiny 8-bucket wheel (constant wrapping and overflow) to 4096 × 4 ns
// and the default 4096 × 8 ns.
func TestEventQueueDifferential(t *testing.T) {
	geometries := []struct{ slotBits, widthBits uint }{
		{3, 0}, {3, 2}, {4, 1}, {6, 3}, {12, 2}, {defaultSlotBits, defaultWidthBits},
	}
	r := NewRNG(42)
	for _, g := range geometries {
		for trial := 0; trial < 40; trial++ {
			program := make([]byte, 2048)
			for i := range program {
				program[i] = byte(r.Intn(256))
			}
			if err := driveQueues(program, g.slotBits, g.widthBits); err != nil {
				t.Fatalf("geometry %d/%d trial %d: %v", g.slotBits, g.widthBits, trial, err)
			}
		}
	}
}

// TestEngineSchedulersEquivalent runs the same self-sustaining random
// workload through a calendar engine and a heap engine and compares
// the full dispatch sequence — the engine-level view of the
// differential property, including nested scheduling from inside
// events.
func TestEngineSchedulersEquivalent(t *testing.T) {
	run := func(opts ...EngineOption) []Time {
		e := NewEngine(opts...)
		r := NewRNG(7)
		var fired []Time
		var burst func()
		burst = func() {
			fired = append(fired, e.Now())
			if len(fired) >= 20000 {
				return
			}
			for i, n := 0, r.Intn(3); i < n; i++ {
				switch r.Intn(4) {
				case 0:
					e.Schedule(0, burst) // same-timestamp FIFO
				case 1:
					e.Schedule(Time(r.Intn(64)), burst)
				case 2:
					e.Schedule(Time(r.Intn(100000)), burst)
				default:
					e.Schedule(Time(r.Intn(1000)), burst)
				}
			}
		}
		for i := 0; i < 64; i++ {
			e.Schedule(Time(r.Intn(500)), burst)
		}
		e.Run(Forever)
		return fired
	}
	calendar := run()
	heap := run(WithScheduler(SchedulerHeap))
	if len(calendar) != len(heap) {
		t.Fatalf("dispatched %d events on calendar, %d on heap", len(calendar), len(heap))
	}
	for i := range calendar {
		if calendar[i] != heap[i] {
			t.Fatalf("dispatch %d: calendar at %v, heap at %v", i, calendar[i], heap[i])
		}
	}
}

// TestCalendarFarTimerFirst is the regression test for a cursor that
// ran ahead of the clock: a fresh engine's first push, a far-future
// timer (a fault campaign's first flap), used to park the window at
// the timer, so every nearer event scheduled after it went through the
// overflow heap. Here a chain of near events runs up to and past the
// timer; only the timer may ever sit in the overflow.
func TestCalendarFarTimerFirst(t *testing.T) {
	e := NewEngine()
	q := e.queue.(*calendarQueue)
	const far = 55_264
	if far < q.span() {
		t.Fatalf("the timer at %v lies inside the %v ns window; the test needs it beyond", Time(far), q.span())
	}
	var fired []Time
	e.At(far, func() { fired = append(fired, e.Now()) })
	var near func()
	near = func() {
		fired = append(fired, e.Now())
		if e.Now() < 2*far {
			e.Schedule(1_000, near)
			e.Schedule(0, func() {})
		}
	}
	e.At(10, near)
	e.At(5_000, func() {})
	maxOverflow := 0
	for e.Step() {
		maxOverflow = max(maxOverflow, q.overflow.len())
		if q.overflow.len() > 1 {
			t.Fatalf("at %v the overflow holds %d events; only the far timer belongs there", e.Now(), q.overflow.len())
		}
	}
	if maxOverflow != 1 {
		t.Fatalf("the far timer never sat in the overflow (max %d)", maxOverflow)
	}
	sawFar := false
	for i, at := range fired {
		if i > 0 && at < fired[i-1] {
			t.Fatalf("dispatch order %v not sorted", fired)
		}
		sawFar = sawFar || at == far
	}
	if !sawFar || fired[len(fired)-1] < 2*far {
		t.Fatalf("the chain stopped at %v or skipped the timer at %v", fired[len(fired)-1], Time(far))
	}
}

// TestCalendarHorizonParking reproduces the cursor-parked-ahead case:
// Run with a horizon before the next pending event leaves the wheel
// cursor beyond the engine clock; a later push behind the cursor must
// still dispatch in order (it routes through the overflow internally).
func TestCalendarHorizonParking(t *testing.T) {
	e := NewEngine()
	var order []Time
	rec := func() { order = append(order, e.Now()) }
	e.At(100000, rec) // far ahead
	e.Run(10)         // peeks, parks the cursor, dispatches nothing
	if len(order) != 0 {
		t.Fatalf("dispatched %d events before the horizon", len(order))
	}
	e.At(5000, rec) // behind the parked cursor, after the clock
	e.At(50, rec)
	e.Run(Forever)
	want := []Time{50, 5000, 100000}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
