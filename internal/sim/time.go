// Package sim provides the discrete-event simulation engine used by the
// InfiniBand fabric model: a time type with nanosecond resolution, an
// event queue with deterministic FIFO tie-breaking, a scheduling engine,
// and a deterministic pseudo-random number generator.
//
// Each Engine is single-threaded: network simulations of this kind are
// dominated by fine-grained causal dependencies (a credit return
// unblocks an arbitration which starts a transmission), and a
// sequential event loop with deterministic ordering makes every run
// exactly reproducible from its seed. Parallelism lives across runs:
// the experiment harness runs independent simulations (different
// topologies, loads, seeds) on separate goroutines.
package sim

import (
	"fmt"
	"time"
)

// Time is a simulation timestamp in nanoseconds. The simulated clock
// starts at zero. Using a dedicated type (rather than time.Duration)
// keeps simulated time and wall-clock time from being mixed up.
type Time int64

// Common time constants, in simulation nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a timestamp far beyond any simulated horizon. It is used
// as an "unset"/"never" marker.
const Forever Time = 1<<63 - 1

// Duration converts a simulated interval to a time.Duration for
// human-readable reporting.
func (t Time) Duration() time.Duration { return time.Duration(t) * time.Nanosecond }

// String formats the timestamp as nanoseconds with a unit suffix.
func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	return fmt.Sprintf("%dns", int64(t))
}
