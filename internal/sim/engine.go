package sim

import (
	"fmt"
	"math"
)

// Engine is the discrete-event simulation core. Components schedule
// callbacks at future simulated times; Run dispatches them in
// timestamp order (FIFO among equal timestamps) while advancing the
// clock. The zero value is not usable; call NewEngine.
type Engine struct {
	now       Time
	seq       uint64
	queue     eventQueue
	processed uint64
	running   bool
	arena     *QueueArena

	// imm is the immediate-event FIFO: delay-0 events scheduled while
	// the engine is mid-dispatch. Such an event's packed key carries age
	// ^(at-schedAt) = ^0, the maximum, so it provably orders after
	// every same-timestamp event already in the queue (whose age fields
	// are all smaller) and among its peers by sequence — i.e. exactly
	// FIFO. Keeping them out of the wheel replaces a sorted-bucket
	// insert and cursor pop per delay-0 event (the dominant event kind
	// of a saturated switch: every coalesced allocation-pass kick) with
	// a slice append and read. imm drains completely before Run
	// returns.
	imm     []event
	immHead int
}

// NewEngine returns an engine with the clock at zero and an empty
// event queue. With no options it uses the calendar-queue scheduler
// at its default geometry; see EngineOption for the scheduler,
// geometry and storage-reuse knobs.
func NewEngine(opts ...EngineOption) *Engine {
	cfg := engineConfig{
		kind:      SchedulerCalendar,
		slotBits:  defaultSlotBits,
		widthBits: defaultWidthBits,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.kind == SchedulerHeap {
		h := &heapQueue{}
		if cfg.capacity > 0 {
			h.ev = make([]event, 0, cfg.capacity)
		}
		return &Engine{queue: h}
	}
	// Widen buckets until the wheel spans the hinted horizon (capped
	// well short of Time overflow).
	for cfg.spanHint > Time(1)<<(cfg.widthBits+cfg.slotBits) && cfg.widthBits+cfg.slotBits < 40 {
		cfg.widthBits++
	}
	var q *calendarQueue
	if cfg.arena != nil {
		q = cfg.arena.get(cfg.slotBits, cfg.widthBits)
	} else {
		q = newCalendarQueue(cfg.slotBits, cfg.widthBits)
	}
	if cfg.capacity > 0 {
		q.prealloc(cfg.capacity)
	}
	return &Engine{queue: q, arena: cfg.arena}
}

// Recycle returns the engine's queue storage to the arena it was
// built with (WithArena), making it available to the next engine in a
// sweep. The engine must be done dispatching and is unusable
// afterwards. Without an arena Recycle is a no-op and the engine
// stays usable.
func (e *Engine) Recycle() {
	if e.arena == nil {
		return
	}
	if q, ok := e.queue.(*calendarQueue); ok {
		e.arena.put(q)
	}
	e.queue = nil
	e.arena = nil
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events dispatched so far. It is
// exposed for progress reporting and engine benchmarks.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return e.queue.len() + (len(e.imm) - e.immHead) }

// Schedule runs fn after delay nanoseconds of simulated time.
// A negative delay panics: allowing it would silently reorder causality.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at the absolute simulated time t, which must not be in
// the past.
func (e *Engine) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	e.AtAction(t, funcAction(fn))
}

// ScheduleAction runs a after delay nanoseconds of simulated time.
// It is the allocation-free counterpart of Schedule: the caller owns
// the Action's storage (typically pooled) and the engine never wraps
// it in a closure. FIFO ordering among equal timestamps is shared with
// closure events — both draw from the same sequence counter.
func (e *Engine) ScheduleAction(delay Time, a Action) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.AtAction(e.now+delay, a)
}

// AtAction runs a at the absolute simulated time t, which must not be
// in the past.
func (e *Engine) AtAction(t Time, a Action) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	if a == nil {
		panic("sim: nil event action")
	}
	if t == e.now && e.running {
		// Delay-0 mid-dispatch: goes to the immediate FIFO (see the imm
		// field). Outside Run (setup code, Step) the event takes the
		// queue path.
		e.imm = append(e.imm, event{at: t, key: eventKey(t, e.now, e.nextSeq()), act: a})
		return
	}
	e.queue.push(event{at: t, key: eventKey(t, e.now, e.nextSeq()), act: a})
}

// nextSeq returns the engine's next event sequence number. The packed
// event key stores it in 32 bits; one engine run would have to
// schedule over four billion events to exhaust it — hours of wall
// time beyond any experiment here — so exhaustion is a model bug
// worth a loud stop rather than a silently wrapped dispatch order.
func (e *Engine) nextSeq() uint64 {
	if e.seq > math.MaxUint32 {
		panic("sim: event sequence space exhausted (2^32 events in one engine)")
	}
	s := e.seq
	e.seq++
	return s
}

// Run dispatches events until the queue is empty or the next event is
// later than horizon. The clock finishes at the time of the last
// dispatched event (or at horizon if the queue drained earlier events
// only). Events scheduled exactly at the horizon are dispatched.
func (e *Engine) Run(horizon Time) {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	e.dispatchLoop(horizon)
	// When the queue drains before the horizon the clock stays at the
	// last dispatched event; callers that need the horizon time read it
	// from their own config.
}

// dispatchLoop is Run's body: dispatch queue events due at or before
// horizon, merging the immediate FIFO in at its exact
// key position. An immediate is always at == now <= horizon (it was
// appended while dispatching an event that passed the horizon check),
// so the loop can never return while imm is nonempty — imm is provably
// drained on exit.
func (e *Engine) dispatchLoop(horizon Time) {
	for {
		if e.immHead < len(e.imm) {
			ie := e.imm[e.immHead]
			// A queue event sharing the timestamp dispatches first iff it
			// orders before ie under the full key — which it does unless
			// it is itself a delay-0 event scheduled after ie (impossible:
			// mid-dispatch delay-0s all land in imm). hasEventAt is the
			// cheap guard; popBefore settles the key comparison exactly.
			if e.queue.hasEventAt(e.now) {
				if ev, ok := e.queue.popBefore(ie); ok {
					e.now = ev.at
					e.processed++
					ev.act.Do()
					continue
				}
			}
			e.imm[e.immHead] = event{} // release the action for GC
			e.immHead++
			if e.immHead == len(e.imm) {
				e.imm = e.imm[:0]
				e.immHead = 0
			}
			e.processed++
			ie.act.Do() // ie.at == e.now already
			continue
		}
		ev, ok := e.queue.popAtMost(horizon)
		if !ok {
			return
		}
		e.now = ev.at
		e.processed++
		ev.act.Do()
	}
}

// RunUntilIdle dispatches every scheduled event regardless of time.
// It is intended for drain phases in tests; a simulation with a
// self-sustaining load would never return.
func (e *Engine) RunUntilIdle() {
	e.Run(Forever)
}

// Step dispatches exactly one event if any is pending and reports
// whether it did. It exists for fine-grained engine tests.
func (e *Engine) Step() bool {
	if e.queue.len() == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.at
	e.processed++
	ev.act.Do()
	return true
}
