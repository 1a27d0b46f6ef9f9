package sim

import "sync"

// QueueArena recycles calendar-queue backing storage across engines.
// A load sweep runs hundreds of back-to-back simulations, each with
// its own engine; without reuse every run re-grows thousands of
// bucket slices and the overflow heap from zero. An arena shared
// across the sweep hands the drained storage of one finished run to
// the next: build engines with NewEngine(WithArena(a)) and call
// Engine.Recycle when a run completes.
//
// The arena is safe for concurrent use — sweep points run on a worker
// pool — but an individual queue is only ever owned by one engine at
// a time.
type QueueArena struct {
	mu   sync.Mutex
	free []*calendarQueue
}

// NewQueueArena returns an empty arena.
func NewQueueArena() *QueueArena { return &QueueArena{} }

// get returns a recycled queue with the requested geometry, or a
// fresh one. Queues recycled under a different geometry are dropped:
// their bucket ring cannot be reshaped in place.
func (a *QueueArena) get(slotBits, widthBits uint) *calendarQueue {
	a.mu.Lock()
	for n := len(a.free) - 1; n >= 0; n-- {
		q := a.free[n]
		a.free = a.free[:n]
		if q.slotBits == slotBits && q.widthBits == widthBits {
			a.mu.Unlock()
			return q
		}
	}
	a.mu.Unlock()
	return newCalendarQueue(slotBits, widthBits)
}

// put resets a queue and shelves its storage for the next get.
func (a *QueueArena) put(q *calendarQueue) {
	q.reset()
	a.mu.Lock()
	a.free = append(a.free, q)
	a.mu.Unlock()
}

// Pooled reports how many recycled queues the arena currently holds
// (the fabric's recycle test verifies a finished network returns its
// engine's storage).
func (a *QueueArena) Pooled() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.free)
}
