package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// countAction is a minimal pooled-style Action.
type countAction struct{ n int }

func (a *countAction) Do() { a.n++ }

func TestActionFIFOWithClosures(t *testing.T) {
	// Actions and closures scheduled at one timestamp share the same
	// sequence counter, so they interleave in scheduling order.
	e := NewEngine()
	var order []int
	a := &appendAction{order: &order, v: 1}
	e.Schedule(0, func() { order = append(order, 0) })
	e.ScheduleAction(0, a)
	e.Schedule(0, func() { order = append(order, 2) })
	e.RunUntilIdle()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("dispatch order %v, want [0 1 2]", order)
	}
}

type appendAction struct {
	order *[]int
	v     int
}

func (a *appendAction) Do() { *a.order = append(*a.order, a.v) }

func TestScheduleActionNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil action accepted")
		}
	}()
	NewEngine().ScheduleAction(0, nil)
}

// TestSchedulePopZeroAllocsWarm is the alloc regression gate for the
// engine itself: once the queue's backing array has grown, a
// schedule/dispatch cycle of a reused Action — and of a reused closure
// — must not allocate.
func TestSchedulePopZeroAllocsWarm(t *testing.T) {
	e := NewEngine()
	a := &countAction{}
	fn := func() {}
	for i := 0; i < 64; i++ { // warm the queue's backing array
		e.ScheduleAction(Time(i), a)
	}
	e.RunUntilIdle()
	allocs := mallocsPerRun(1000, func() {
		e.ScheduleAction(1, a)
		e.Schedule(2, fn)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("warm schedule/dispatch allocates %v objects, want 0", allocs)
	}
}

// TestEngineHeapSchedulerZeroAllocsWarm keeps the heap fallback under
// the same alloc discipline as the default scheduler.
func TestEngineHeapSchedulerZeroAllocsWarm(t *testing.T) {
	e := NewEngine(WithScheduler(SchedulerHeap))
	a := &countAction{}
	for i := 0; i < 64; i++ {
		e.ScheduleAction(Time(i), a)
	}
	e.RunUntilIdle()
	allocs := mallocsPerRun(1000, func() {
		e.ScheduleAction(1, a)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("warm heap schedule/dispatch allocates %v objects, want 0", allocs)
	}
}

// BenchmarkEnginePushPop measures a schedule+dispatch cycle through
// the typed-action fast path.
func BenchmarkEnginePushPop(b *testing.B) {
	e := NewEngine()
	a := &countAction{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleAction(1, a)
		e.Step()
	}
}

// BenchmarkEnginePushPopDepth measures the default calendar queue at a
// realistic standing queue depth (a saturated 64-switch subnet keeps
// thousands of events pending). Every 4 ns bucket receives its
// timestamps out of order, so each one takes the counting sort.
func BenchmarkEnginePushPopDepth(b *testing.B) {
	e := NewEngine()
	a := &countAction{}
	const depth = 4096
	for i := 0; i < depth; i++ {
		e.ScheduleAction(Time(i%64), a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleAction(Time(i%64)+1, a)
		e.Step()
	}
}

// BenchmarkEventQueueDepth sweeps the standing queue depth for both
// scheduler implementations on a hop-like delay distribution (0..4095
// ns ahead, the fabric's routing+propagation+serialization horizon).
// The calendar's flat curve against the heap's log-n climb is why the
// calendar queue is the default scheduler.
func BenchmarkEventQueueDepth(b *testing.B) {
	impls := []struct {
		name string
		opts []EngineOption
	}{
		{"calendar", nil},
		{"heap", []EngineOption{WithScheduler(SchedulerHeap)}},
	}
	for _, impl := range impls {
		for _, depth := range []int{1 << 10, 1 << 14, 1 << 18} {
			b.Run(fmt.Sprintf("%s/depth=%d", impl.name, depth), func(b *testing.B) {
				e := NewEngine(impl.opts...)
				a := &countAction{}
				r := NewRNG(11)
				for i := 0; i < depth; i++ {
					e.ScheduleAction(Time(r.Intn(4096)), a)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.ScheduleAction(Time(r.Intn(4096))+1, a)
					e.Step()
				}
			})
		}
	}
}

// mallocsPerRun is testing.AllocsPerRun without its rounding down: it
// runs f once to warm up, then runs times, and returns the mean number
// of heap objects allocated per run as a float, so a bound below one
// allocation per run is a real bound. Like AllocsPerRun it pins
// GOMAXPROCS to 1 while it measures.
func mallocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
