package sim

import "fmt"

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

	// imm is the immediate-event FIFO: delay-0 events scheduled while
	// the engine is mid-dispatch. Every queued event sharing such an
	// event's timestamp was scheduled before it (a mid-dispatch delay-0
	// event never takes the queue path), so it carries a smaller seq and
	// dispatches first; among themselves immediates dispatch in seq
	// order, i.e. FIFO. Keeping them out of the wheel replaces a
	// sorted-bucket insert and cursor pop per delay-0 event (the
	// dominant event kind of a saturated switch: every coalesced
	// allocation-pass kick) with a slice append and read. imm drains
	// completely before Run returns.
	imm     []event
	immHead int
}

// NewEngine returns an engine with the clock at zero and an empty
// event queue. With no options it uses the calendar-queue scheduler
// at its default geometry; see EngineOption for the scheduler and
// geometry knobs.
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
		return &Engine{queue: &heapQueue{}}
	}
	return &Engine{queue: newCalendarQueue(cfg.slotBits, cfg.widthBits)}
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
		e.imm = append(e.imm, event{at: t, seq: e.seq, act: a})
	} else {
		e.queue.push(event{at: t, seq: e.seq, act: a})
	}
	e.seq++
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
// horizon, merging the immediate FIFO in at its exact (at, seq)
// position. An immediate is always at == now <= horizon (it was
// appended while dispatching an event that passed the horizon check),
// so the loop can never return while imm is nonempty — imm is provably
// drained on exit.
//
// A queue event at the clock dispatches before every immediate: it was
// scheduled before them (mid-dispatch delay-0 events all go to imm),
// so it carries a smaller seq. The merge therefore needs no
// comparison. hasEventAt is its guard, because unlike a pop it never
// walks the calendar's cursor past a drained bucket; when it finds an
// event, nothing pending predates the clock, so popAtMost(horizon)
// pops that event at the clock.
func (e *Engine) dispatchLoop(horizon Time) {
	for {
		if e.immHead < len(e.imm) && !e.queue.hasEventAt(e.now) {
			ie := e.imm[e.immHead]
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
	ev, ok := e.queue.popAtMost(Forever)
	if !ok {
		return false
	}
	e.now = ev.at
	e.processed++
	ev.act.Do()
	return true
}
