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
}

// EngineOption configures NewEngine. The zero-option engine uses the
// calendar scheduler at its default geometry.
type EngineOption func(*engineConfig)

// WithScheduler selects the event-queue implementation.
func WithScheduler(k SchedulerKind) EngineOption {
	return func(c *engineConfig) { c.kind = k }
}

// WithWheelGeometry pins the calendar wheel to 1<<slotBits buckets of
// 1<<widthBits ns each. Tiny wheels wrap and overflow constantly —
// exactly what the scheduler differential tests want to stress;
// production callers keep the default geometry. Buckets are at most
// 64 ns wide: widthBits above 6 panics.
func WithWheelGeometry(slotBits, widthBits uint) EngineOption {
	if widthBits > maxWidthBits {
		panic(fmt.Sprintf("sim: wheel bucket width 2^%d ns exceeds the 2^%d ns cap", widthBits, maxWidthBits))
	}
	return func(c *engineConfig) { c.slotBits, c.widthBits = slotBits, widthBits }
}
