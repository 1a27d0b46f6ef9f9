// Package check is the simulator's correctness-tooling layer: a
// runtime invariant auditor that re-verifies the paper's model rules
// while a simulation runs, and (in the test files) a conformance
// harness — metamorphic properties, property-based generators and a
// mutation smoke suite — that proves the auditor would notice if an
// optimization bent the model.
//
// The auditor hooks the same Network-level observer callbacks the
// metrics collector uses. Cheap per-event checks are always on;
// whole-fabric scans (credit audit, live-table escape-CDG acyclicity)
// run on a periodic engine tick only when Config.Heavy is set (the
// -check flag of ibsim/ibbench). Heavy ticks only read state, so
// enabling them never perturbs simulation results — the Figure 3
// golden hash holds with -check on.
package check

import (
	"fmt"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// Invariant names. Every Violation carries one of these; the mutation
// smoke suite asserts each deliberate model break trips the named
// invariant it targets.
const (
	// InvCreditBound: per channel, 0 <= credits and
	// credits + peer occupancy <= CMax. (§4.4 flow control: in-flight
	// packets and updates can only lower availability, never invent it.)
	InvCreditBound = fabric.AuditCreditBound
	// InvCreditSplit: the §4.4 identities C_XYA = max(0, C_XY − C_0),
	// C_XYE = min(C_0, C_XY), C_XYA + C_XYE = C_XY, and well-formedness
	// of the configured split (0 < C_0 < CMax).
	InvCreditSplit = fabric.AuditCreditSplit
	// InvCreditOccupancy: an input buffer's occupancy counter equals
	// the sum of its entries' credits.
	InvCreditOccupancy = fabric.AuditCreditOccupancy
	// InvCreditsIntact: with the network fully drained, every channel
	// sees its full credit count again (credits were neither lost nor
	// duplicated over the run).
	InvCreditsIntact = "credits-intact"
	// InvAdaptiveAdmission: an adaptive routing option is only taken
	// when the next hop's ADAPTIVE queue has room for the whole packet:
	// C_XYA = max(0, C_XY − C_0) >= packet credits (§4.4).
	InvAdaptiveAdmission = "adaptive-admission"
	// InvEscapeAdmission: any other hop (escape, or delivery into a CA)
	// requires total room for the whole packet: C_XY >= packet credits
	// (virtual cut-through, §4.4).
	InvEscapeAdmission = "escape-admission"
	// InvEscapeCDGAcyclic: the escape paths programmed in the LIVE
	// forwarding tables form an acyclic channel dependency graph —
	// Duato's deadlock-freedom condition (§3), re-checked against what
	// the switches actually execute rather than what the subnet manager
	// computed.
	InvEscapeCDGAcyclic = "escape-cdg-acyclic"
	// InvDeterministicOrder: packets of a flow sent with deterministic
	// service (DLID LSB 0, §4.2) are delivered in injection order.
	InvDeterministicOrder = "deterministic-order"
	// InvPacketConservation: once drained, every injected packet is
	// delivered, lost with a counted cause, or still queued — nothing
	// vanishes (injected = delivered + lost + in-flight).
	InvPacketConservation = "packet-conservation"
	// InvDeadlock: the event queue drained while packets were still
	// buffered — nothing can ever move them again.
	InvDeadlock = "deadlock"
)

// Config controls the auditor. The zero value enables exactly the
// cheap always-on checks.
type Config struct {
	// Heavy enables the periodic whole-fabric scans (credit audit,
	// live-table escape-CDG acyclicity) on an engine tick.
	Heavy bool
}

const (
	// heavyEvery is the heavy tick period, matching the fault
	// watchdog's sampling cadence.
	heavyEvery sim.Time = 5_000
	// maxViolations caps recorded violations so a systemic breach
	// doesn't balloon memory; counting continues.
	maxViolations = 64
)

// Violation is one observed invariant breach.
type Violation struct {
	At        sim.Time
	Invariant string
	Detail    string
}

// Error implements error so runners can surface the first violation
// directly.
func (v Violation) Error() string {
	return fmt.Sprintf("check: %s at t=%d: %s", v.Invariant, v.At, v.Detail)
}

// Report is the auditor's folded end-of-run summary.
type Report struct {
	// Created and Delivered count packets over the whole run (not a
	// measurement window — conservation needs totals).
	Created   uint64
	Delivered uint64
	// HopChecks counts per-hop admission verifications performed.
	HopChecks uint64
	// HeavyTicks counts whole-fabric scan ticks (0 unless Config.Heavy).
	HeavyTicks uint64
	// Violations lists recorded breaches: per-event (hook) findings
	// first, then heavy-tick and finalize findings, at most 64 in all.
	// ViolationCount keeps counting past the cap.
	Violations     []Violation
	ViolationCount uint64
}

// Err returns the first violation as an error, or nil when clean.
func (r Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return r.Violations[0]
}

// Has reports whether any recorded violation carries the named
// invariant (mutation-suite assertion helper).
func (r Report) Has(invariant string) bool {
	for _, v := range r.Violations {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// findings is one capped violation list plus its uncapped count.
type findings struct {
	list  []Violation
	count uint64
}

func (f *findings) add(v Violation) {
	f.count++
	if len(f.list) < maxViolations {
		f.list = append(f.list, v)
	}
}

// Auditor re-verifies model invariants from the fabric's observer
// hooks. Build with Attach; read results with Finalize.
type Auditor struct {
	net    *fabric.Network
	ticker *sim.Ticker

	// Per-event hook state: totals, the in-order check's per-flow
	// high-water marks, and the hook findings. created0 is the
	// network's creation count at Attach (see fabric.Network.Created).
	// lastDetSeq holds, in slot src*numHosts+dst, the SeqNo of the
	// flow's last deterministic delivery plus one (zero = none yet); a
	// SeqNo stays below 2^32-1 (see fabric.Host), so it fits 32 bits.
	// It is nil when orderExempt.
	created0   uint64
	delivered  uint64
	hopChecks  uint64
	lastDetSeq []uint32
	numHosts   int
	hook       findings

	// Heavy-tick and finalize findings.
	control findings

	final     Report
	finalized bool

	// orderExempt disables the in-order check when the configuration
	// legitimately reorders deterministic packets: source multipath
	// spreads one flow over several paths, and drop/retry re-injects
	// packets behind their successors.
	orderExempt bool
}

// Attach hooks an auditor onto net, chaining the Network-level
// callbacks after whatever collector/tracer is already there. With
// cfg.Heavy it also starts the whole-fabric scan ticker on the engine.
// Attach must come after other observers so their callbacks keep
// running even when an audit panics under test harnesses.
func Attach(net *fabric.Network, cfg Config) *Auditor {
	a := &Auditor{
		net:         net,
		created0:    net.Created(),
		numHosts:    net.Topo.NumHosts(),
		orderExempt: net.Cfg.SourceMultipath > 1 || net.Cfg.Retry.Enabled(),
	}
	if !a.orderExempt {
		a.lastDetSeq = make([]uint32, a.numHosts*a.numHosts)
	}
	prevDelivered, prevHop := net.OnDelivered, net.OnHop
	net.OnDelivered = func(p *ib.Packet) {
		if prevDelivered != nil {
			prevDelivered(p)
		}
		a.onDelivered(p)
	}
	net.OnHop = func(p *ib.Packet, sw int, out ib.PortID, adaptive bool) {
		if prevHop != nil {
			prevHop(p, sw, out, adaptive)
		}
		a.onHop(p, sw, out, adaptive)
	}
	if cfg.Heavy {
		a.ticker = sim.NewTicker(net.Engine, heavyEvery, a.heavyTick)
		a.ticker.Start()
	}
	return a
}

// onDelivered counts the delivery and enforces InvDeterministicOrder:
// within a flow, the subsequence of deterministic-service deliveries
// must carry nondecreasing sequence numbers. Adaptive packets may
// legitimately overtake (§1 names that the price of adaptivity).
func (a *Auditor) onDelivered(p *ib.Packet) {
	a.delivered++
	if a.orderExempt || p.Adaptive {
		return
	}
	fi := int(p.Src)*a.numHosts + int(p.Dst)
	if last := a.lastDetSeq[fi]; last != 0 && p.SeqNo < uint64(last-1) {
		a.hook.add(Violation{
			At:        p.DeliveredAt,
			Invariant: InvDeterministicOrder,
			Detail: fmt.Sprintf("flow %d->%d: deterministic packet seq %d delivered after seq %d",
				p.Src, p.Dst, p.SeqNo, last-1),
		})
		return
	}
	a.lastDetSeq[fi] = uint32(p.SeqNo) + 1
}

// onHop re-checks the §4.4 admission rule for every forwarding
// decision. OnHop fires synchronously inside the switch's startTx with
// no intervening event, so AuditHopView's post-decrement credits plus
// the packet's own credits reconstruct exactly the availability the
// selector saw.
func (a *Auditor) onHop(p *ib.Packet, sw int, out ib.PortID, adaptive bool) {
	a.hopChecks++
	now, credits, hostFacing, ok := a.net.Switches[sw].AuditHopView(out)
	if !ok {
		return
	}
	pre := credits + p.Credits()
	split := a.net.Cfg.Split
	if adaptive && !hostFacing {
		if !split.CanUseAdaptive(pre, p.Credits()) {
			a.hook.add(Violation{
				At:        now,
				Invariant: InvAdaptiveAdmission,
				Detail: fmt.Sprintf("switch %d port %d: packet %d (%d credits) admitted adaptively with C_XY=%d, C_XYA=%d (C_0=%d)",
					sw, out, p.ID, p.Credits(), pre, split.Adaptive(pre), split.CEscape),
			})
		}
		return
	}
	if !split.CanUseEscape(pre, p.Credits()) {
		a.hook.add(Violation{
			At:        now,
			Invariant: InvEscapeAdmission,
			Detail: fmt.Sprintf("switch %d port %d: packet %d (%d credits) sent with only %d credits available",
				sw, out, p.ID, p.Credits(), pre),
		})
	}
}

func (a *Auditor) report(v Violation) { a.control.add(v) }

// heavyTick runs the whole-fabric scans. It follows the watchdog's
// self-stop protocol: once nothing else is pending, the auditor is the
// only thing left alive and stops rescheduling (reporting a deadlock
// if packets are still buffered).
func (a *Auditor) heavyTick(now sim.Time) (stop bool) {
	a.net.AuditCredits(a.reporter(now))
	a.checkEscapeCDG(now)
	if a.net.Engine.Pending() == 0 {
		a.checkDeadlock(now)
		return true
	}
	return false
}

// reporter adapts the fabric's (class, detail) audit callbacks to
// violations stamped at now.
func (a *Auditor) reporter(now sim.Time) func(class, detail string) {
	return func(class, detail string) {
		a.report(Violation{At: now, Invariant: class, Detail: detail})
	}
}

// checkDeadlock reports InvDeadlock when packets are still buffered;
// callers invoke it once nothing else is pending. It returns the
// in-flight count.
func (a *Auditor) checkDeadlock(now sim.Time) int {
	inFlight := a.net.InFlight()
	if inFlight > 0 {
		a.report(Violation{
			At:        now,
			Invariant: InvDeadlock,
			Detail:    fmt.Sprintf("event queue empty with %d packets in flight", inFlight),
		})
	}
	return inFlight
}

// Finalize stops the heavy ticker and runs the end-of-run checks,
// returning the combined report. Calling Finalize twice returns the
// same report.
//
// The strict end-state checks (deadlock, packet conservation, credit
// restoration) need a decided end state: they run only when no event
// is pending anywhere beyond the auditor's own parked tick. A run cut
// off at its horizon with traffic still in flight — or sharing the
// engine with a still-armed fault watchdog — skips them rather than
// guessing.
func (a *Auditor) Finalize() Report {
	if a.finalized {
		return a.final
	}
	a.finalized = true
	if a.ticker != nil {
		a.ticker.Stop()
	}
	r := Report{
		Created:        a.net.Created() - a.created0,
		Delivered:      a.delivered,
		HopChecks:      a.hopChecks,
		ViolationCount: a.hook.count,
		Violations:     a.hook.list,
	}
	a.hook.list = nil

	now := a.net.Engine.Now()
	a.net.AuditSplit(a.reporter(now))
	pending := a.net.Engine.Pending()
	if a.ticker != nil && a.ticker.Scheduled() {
		pending--
	}
	if pending == 0 {
		inFlight := a.checkDeadlock(now)
		lost := a.net.FaultTotals().Lost
		if r.Created != r.Delivered+lost+uint64(inFlight) {
			a.report(Violation{
				At:        now,
				Invariant: InvPacketConservation,
				Detail: fmt.Sprintf("created %d != delivered %d + lost %d + in-flight %d",
					r.Created, r.Delivered, lost, inFlight),
			})
		}
		if inFlight == 0 {
			if err := a.net.CreditsIntact(); err != nil {
				a.report(Violation{At: now, Invariant: InvCreditsIntact, Detail: err.Error()})
			}
		}
	}
	if a.ticker != nil {
		r.HeavyTicks = a.ticker.Ticks()
	}
	r.ViolationCount += a.control.count
	if room := maxViolations - len(r.Violations); room > 0 {
		if len(a.control.list) > room {
			a.control.list = a.control.list[:room]
		}
		r.Violations = append(r.Violations, a.control.list...)
	}
	a.control.list = nil
	a.final = r
	return r
}
