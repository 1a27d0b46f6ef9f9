package faults

import (
	"fmt"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// WatchdogConfig controls the runtime invariant checkers. Every fault
// campaign run starts the watchdog; a zero field takes its default
// (5,000 ns sampling, 100,000 ns progress horizon).
type WatchdogConfig struct {
	// SampleEvery is the audit tick period.
	SampleEvery sim.Time
	// Horizon is how long a non-empty buffer may keep the same head
	// packet before the forward-progress checker flags it.
	Horizon sim.Time
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 5_000
	}
	if c.Horizon <= 0 {
		c.Horizon = 100_000
	}
	return c
}

// Violation is one invariant breach the watchdog observed. It
// implements error so runners can surface it directly.
type Violation struct {
	At     sim.Time
	Kind   string // "credit-conservation", "forward-progress", "deadlock"
	Detail string
}

func (v Violation) Error() string {
	return fmt.Sprintf("faults: watchdog: %s at t=%d: %s", v.Kind, v.At, v.Detail)
}

// maxViolations bounds the recorded list so a systemic breach (every
// buffer stuck) doesn't balloon memory; Samples keeps counting.
const maxViolations = 64

// bufKey identifies one watched service point: a switch input port's
// buffer or a host source queue.
type bufKey struct {
	host bool
	sw   int
	port ib.PortID
}

// bufSig is the progress signature of a service point: if a non-empty
// buffer keeps the same head packet (and the host keeps the same
// injection count) across Horizon, nothing is moving through it.
type bufSig struct {
	headID   uint64
	depth    int
	injected uint64
	since    sim.Time // when this signature was first observed
	flagged  bool     // already reported; suppress until the signature changes
}

// Watchdog samples runtime invariants on the simulation clock:
//
//   - credit conservation: the paper's C_XYA/C_XYE split identities and
//     the in-flight credit bound, via Network.CheckCreditConservation.
//   - forward progress: every non-empty buffer must change its head
//     packet within Horizon, else the fabric is wedged (a routing or
//     flow-control deadlock).
//   - deadlock: if the event queue drains while packets are still in
//     flight, nothing can ever move them again.
//
// A breach is recorded, not raised: the run still stops at its horizon.
type Watchdog struct {
	net *fabric.Network
	cfg WatchdogConfig

	ticker     *sim.Ticker
	sigs       map[bufKey]*bufSig
	violations []Violation
}

// NewWatchdog builds a watchdog for net. Call Start to begin sampling.
func NewWatchdog(net *fabric.Network, cfg WatchdogConfig) *Watchdog {
	w := &Watchdog{
		net:  net,
		cfg:  cfg.withDefaults(),
		sigs: make(map[bufKey]*bufSig),
	}
	w.ticker = sim.NewTicker(net.Engine, w.cfg.SampleEvery, w.tick)
	return w
}

// Start schedules the first audit tick.
func (w *Watchdog) Start() { w.ticker.Start() }

// Stop prevents further ticks (the one already scheduled becomes a
// no-op).
func (w *Watchdog) Stop() { w.ticker.Stop() }

// Violations returns the recorded invariant breaches (capped at 64).
func (w *Watchdog) Violations() []Violation { return w.violations }

// Samples returns how many audit ticks have run.
func (w *Watchdog) Samples() uint64 { return w.ticker.Ticks() }

func (w *Watchdog) tick(now sim.Time) (stop bool) {
	if err := w.net.CheckCreditConservation(); err != nil {
		w.report(Violation{At: now, Kind: "credit-conservation", Detail: err.Error()})
	}
	w.checkProgress(now)

	// The tick just popped; if the event queue is now empty the
	// watchdog is the only thing left alive. Stop rescheduling —
	// and if packets are still in flight, nothing can ever move them:
	// that is a deadlock, reported immediately rather than discovered
	// at the horizon.
	if w.net.Engine.Pending() == 0 {
		if inFlight := w.net.InFlight(); inFlight > 0 {
			w.report(Violation{
				At:     now,
				Kind:   "deadlock",
				Detail: fmt.Sprintf("event queue empty with %d packets in flight", inFlight),
			})
		}
		return true
	}
	return false
}

// checkProgress compares every service point's signature against the
// previous samples and flags any non-empty buffer whose head has not
// moved within Horizon.
func (w *Watchdog) checkProgress(now sim.Time) {
	for s, sw := range w.net.Switches {
		s := s
		sw.ScanBuffers(func(port ib.PortID, depth int, headID uint64) {
			w.observe(now, bufKey{sw: s, port: port}, headID, depth, 0,
				func() string {
					return fmt.Sprintf("switch %d port %d: head packet %d stuck for %dns (depth %d)",
						s, port, headID, now-w.sigs[bufKey{sw: s, port: port}].since, depth)
				})
		})
	}
	for hid, h := range w.net.Hosts {
		hid := hid
		h2 := h
		w.observe(now, bufKey{host: true, sw: hid}, h.HeadID(), h.QueueLen(), h.Injected,
			func() string {
				return fmt.Sprintf("host %d: source-queue head packet %d stuck for %dns (depth %d)",
					hid, h2.HeadID(), now-w.sigs[bufKey{host: true, sw: hid}].since, h2.QueueLen())
			})
	}
}

// observe updates one service point's signature, reporting a
// forward-progress violation when a non-empty buffer's signature has
// been stable for at least Horizon.
func (w *Watchdog) observe(now sim.Time, k bufKey, headID uint64, depth int, injected uint64, detail func() string) {
	sig := w.sigs[k]
	if sig == nil {
		sig = &bufSig{}
		w.sigs[k] = sig
		sig.headID, sig.depth, sig.injected, sig.since = headID, depth, injected, now
		return
	}
	if sig.headID != headID || sig.depth != depth || sig.injected != injected {
		sig.headID, sig.depth, sig.injected, sig.since = headID, depth, injected, now
		sig.flagged = false
		return
	}
	if depth == 0 || sig.flagged || now-sig.since < w.cfg.Horizon {
		return
	}
	sig.flagged = true
	w.report(Violation{At: now, Kind: "forward-progress", Detail: detail()})
}

func (w *Watchdog) report(v Violation) {
	if len(w.violations) < maxViolations {
		w.violations = append(w.violations, v)
	}
}
