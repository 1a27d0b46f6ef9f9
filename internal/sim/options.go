package sim

import "fmt"

// SchedulerKind selects the event-queue implementation behind an
// engine. Both kinds realize the identical (at, seq) dispatch order —
// the choice is purely a performance trade-off, and the differential
// tests in this package enforce the equivalence.
type SchedulerKind int

const (
	// SchedulerCalendar is the default: a two-level calendar queue
	// with O(1) amortized push/pop for the short-horizon event
	// traffic of a saturated subnet. See calendarQueue.
	SchedulerCalendar SchedulerKind = iota
	// SchedulerHeap is the binary min-heap reference: O(log n) but
	// geometry-free, the safer choice for workloads whose event
	// horizon is unbounded or unknown.
	SchedulerHeap
)

// ParseScheduler maps a CLI flag value to a SchedulerKind.
func ParseScheduler(name string) (SchedulerKind, error) {
	switch name {
	case "", "calendar", "wheel":
		return SchedulerCalendar, nil
	case "heap":
		return SchedulerHeap, nil
	}
	return 0, fmt.Errorf("sim: unknown scheduler %q (want calendar or heap)", name)
}

// String returns the flag spelling of the kind.
func (k SchedulerKind) String() string {
	if k == SchedulerHeap {
		return "heap"
	}
	return "calendar"
}

type engineConfig struct {
	kind      SchedulerKind
	slotBits  uint
	widthBits uint
	spanHint  Time
	capacity  int
	arena     *QueueArena
}

// EngineOption configures NewEngine. The zero-option engine uses the
// calendar scheduler at its default geometry.
type EngineOption func(*engineConfig)

// WithScheduler selects the event-queue implementation.
func WithScheduler(k SchedulerKind) EngineOption {
	return func(c *engineConfig) { c.kind = k }
}

// WithSpanHint widens the calendar buckets until one wheel rotation
// covers at least d nanoseconds. Callers that know how far ahead
// their events land (for the fabric: routing + propagation + MTU
// serialization time) pass a multiple of that horizon so steady-state
// traffic never touches the overflow heap. Ignored by the heap
// scheduler; the largest hint wins.
func WithSpanHint(d Time) EngineOption {
	return func(c *engineConfig) {
		if d > c.spanHint {
			c.spanHint = d
		}
	}
}

// WithWheelGeometry pins the calendar wheel to 1<<slotBits buckets of
// 1<<widthBits ns each, clearing any span hint accumulated so far.
// Tiny wheels wrap and overflow constantly — exactly what the
// scheduler differential tests want to stress; production
// callers should prefer WithSpanHint.
func WithWheelGeometry(slotBits, widthBits uint) EngineOption {
	return func(c *engineConfig) {
		c.slotBits, c.widthBits = slotBits, widthBits
		c.spanHint = 0
	}
}

// WithCapacityHint pre-sizes event storage for roughly n standing
// events, moving slice growth from the first simulated microseconds
// to construction time.
func WithCapacityHint(n int) EngineOption {
	return func(c *engineConfig) {
		if n > c.capacity {
			c.capacity = n
		}
	}
}

// WithArena draws the queue's backing storage from a shared
// QueueArena; Engine.Recycle returns it when the run completes. Used
// by sweep harnesses to stop consecutive runs from re-growing queue
// storage from zero. Ignored by the heap scheduler.
func WithArena(a *QueueArena) EngineOption {
	return func(c *engineConfig) { c.arena = a }
}
