package fabric

import (
	"fmt"

	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// Credit-audit invariant classes. AuditCredits reports breaches under
// these names; internal/check re-exports them as its invariant
// catalog (fabric cannot import check without a cycle, so the strings
// are defined at the point the checks run).
const (
	// AuditCreditBound: 0 <= c and c + occ <= CMax per channel.
	AuditCreditBound = "credit-bound"
	// AuditCreditSplit: the §4.4 identities C_XYA = max(0, c − C_0),
	// C_XYE = min(C_0, c), C_XYA + C_XYE = c, plus well-formedness of
	// the configured split (0 < C_0 < CMax).
	AuditCreditSplit = "credit-split"
	// AuditCreditOccupancy: a buffer's occupied counter equals the sum
	// of its entries' credits.
	AuditCreditOccupancy = "credit-occupancy"
)

// AuditCredits verifies the flow-control invariants that must hold at
// ANY simulated instant, packets in flight or not — the runtime
// counterpart of CreditsIntact (which requires an idle network). For
// every directed channel, with c the credits the transmitter believes
// are available and occ the credits actually stored in the peer's
// buffer:
//
//	0 <= c <= CMax            (credits neither negative nor invented)
//	c + occ <= CMax           (in-flight packets/updates only lower it)
//	occ == Σ entry credits    (buffer occupancy bookkeeping is exact)
//
// and the paper's §4.4 split identities on the observed availability:
//
//	C_XYA = max(0, c − C_0),  C_XYE = min(C_0, c),  C_XYA + C_XYE = c
//
// Unlike an error return, the report callback sees EVERY breach (with
// its invariant class), so an auditor can attribute a corruption to
// the specific rule it violated. The fault watchdog samples the
// first-error wrapper CheckCreditConservation on a tick; a violation
// means the fabric corrupted credit state (e.g. a drop path forgot to
// return buffer space), which would eventually masquerade as
// congestion or deadlock.
func (n *Network) AuditCredits(report func(class, detail string)) {
	split := n.Cfg.Split
	cmax := split.CMax
	n.AuditSplit(report)
	check := func(o *outPort, owner string) {
		if o == nil {
			return
		}
		c := o.credits
		if c < 0 || c > cmax {
			report(AuditCreditBound, fmt.Sprintf("%s port %d: %d credits outside [0,%d]",
				owner, o.id, c, cmax))
		}
		a, e := split.Adaptive(c), split.Escape(c)
		if a+e != c || a < 0 || a > split.CAdaptiveCap() || e < 0 || e > split.CEscape {
			report(AuditCreditSplit, fmt.Sprintf("%s port %d: split identity broken: c=%d C_XYA=%d C_XYE=%d (C_0=%d)",
				owner, o.id, c, a, e, split.CEscape))
		}
		if o.peerSwitch == nil {
			return
		}
		buf := o.peerSwitch.in[o.peerPort].buf
		sum := 0
		// Recompute from the packets, not the slab's cached credits
		// column, so the audit stays independent of the bookkeeping it
		// checks.
		for _, id := range buf.ids {
			sum += buf.slab.pkt[id].Credits()
		}
		if sum != buf.occupied {
			report(AuditCreditOccupancy, fmt.Sprintf("%s port %d: peer buffer claims %d credits occupied, entries hold %d",
				owner, o.id, buf.occupied, sum))
		}
		if c+buf.occupied > cmax {
			report(AuditCreditBound, fmt.Sprintf("%s port %d: credits %d + peer occupancy %d exceed capacity %d",
				owner, o.id, c, buf.occupied, cmax))
		}
	}
	for _, sw := range n.Switches {
		for _, o := range sw.out {
			check(o, fmt.Sprintf("switch %d", sw.id))
		}
	}
	for _, h := range n.Hosts {
		check(h.out, fmt.Sprintf("host %d", h.id))
	}
}

// AuditSplit reports an ill-formed configured split: the §4.4 model
// needs 0 < C_0 < CMax.
func (n *Network) AuditSplit(report func(class, detail string)) {
	split := n.Cfg.Split
	if split.CEscape <= 0 || split.CEscape >= split.CMax {
		report(AuditCreditSplit, fmt.Sprintf(
			"split ill-formed: CMax=%d CEscape=%d (want 0 < C_0 < CMax)", split.CMax, split.CEscape))
	}
}

// CheckCreditConservation is the first-error wrapper over AuditCredits
// kept for the fault watchdog: it returns the first breach as an error
// (class prefixed), or nil when every credit invariant holds.
func (n *Network) CheckCreditConservation() error {
	var first error
	n.AuditCredits(func(class, detail string) {
		if first == nil {
			first = fmt.Errorf("fabric: %s: %s", class, detail)
		}
	})
	return first
}

// AuditHopView exposes the post-decrement transmitter state the OnHop
// hook needs to re-check the §4.4 admission rules. OnHop fires
// synchronously inside startTx, immediately after the packet's
// credits were reserved and with no intervening event, so the
// pre-decision availability the selector saw is exactly
// credits + pkt.Credits(). hostFacing distinguishes delivery ports
// (CA drains at line rate, total room is the admission condition)
// from inter-switch ports (adaptive region must hold the whole
// packet). ok is false for an unwired port.
func (sw *Switch) AuditHopView(out ib.PortID) (now sim.Time, credits int, hostFacing, ok bool) {
	if int(out) >= len(sw.out) {
		return 0, 0, false, false
	}
	o := sw.out[out]
	if o == nil {
		return 0, 0, false, false
	}
	return sw.net.Engine.Now(), o.credits, o.peerHost != nil, true
}

// NeighborAt resolves an inter-switch output port of switch s to the
// adjacent switch it is wired to (the inverse of PortToNeighbor).
// ok is false for host-facing or unwired ports. The live-table escape
// CDG audit uses it to turn programmed forwarding ports back into
// topology channels.
func (n *Network) NeighborAt(s int, port ib.PortID) (neighbor int, ok bool) {
	if s < 0 || s >= len(n.Switches) {
		return 0, false
	}
	sw := n.Switches[s]
	if int(port) >= len(sw.out) {
		return 0, false
	}
	o := sw.out[port]
	if o == nil || o.peerSwitch == nil {
		return 0, false
	}
	return o.peerSwitch.id, true
}
