package fabric

import (
	"fmt"

	"ibasim/internal/ib"
)

// Tamper deliberately mis-implements one paper rule in the forwarding
// path. It exists ONLY for the mutation smoke suite in internal/check:
// each flag recreates a plausible implementation bug (the kind a
// refactor could introduce silently), and the suite asserts the
// invariant auditor catches it by name. All flags default to false and
// the branches that read them are plain bool tests, so the hot path —
// and the bit-exact goldens — are unaffected when the struct is zero.
type Tamper struct {
	// SkipAdaptiveRoomCheck admits a packet to an adaptive queue when
	// only TOTAL room exists, i.e. it uses C_XY where §4.4 demands
	// C_XYA = max(0, C_XY − C_0) — the "whole packet must fit in the
	// adaptive region" rule is skipped. Detected as adaptive-admission.
	SkipAdaptiveRoomCheck bool

	// NoEscapeFallback drops the §4.4 escape fallback for adaptive
	// packets that carry adaptive options: when no adaptive option is
	// eligible the packet just waits, re-introducing the deadlock the
	// escape sub-network exists to break. Detected as deadlock.
	NoEscapeFallback bool

	// AdaptiveDeterministic routes LSB=0 (deterministic service)
	// packets through the adaptive options of their LID block, as if
	// the §4.2 service-mode bit were ignored. Destroys the in-order
	// guarantee; detected as deterministic-order.
	AdaptiveDeterministic bool
}

// SetTamper installs a fault model for the mutation suite. Passing the
// zero Tamper restores honest forwarding. A tamper model forces the
// scan arbiter: the wake arbiter's exactness argument (wake.go) only
// covers honest forwarding. The zero Tamper re-arms it (with a
// wholesale wake).
func (n *Network) SetTamper(t Tamper) {
	n.tamper = t
	n.applyArb()
}

// TamperCredits forges flow-control state: it adds delta (possibly
// negative) to the credit counter of switch s's output port toward
// neighbor, VL vl, without touching the peer buffer — the
// transmitter's view of the channel now lies. Mutation-suite hook:
// a positive delta invents credits (credit-bound), a negative one
// leaks them (credits-intact once drained).
func (n *Network) TamperCredits(s, neighbor, vl, delta int) error {
	port, err := n.PortToNeighbor(s, neighbor)
	if err != nil {
		return err
	}
	o := n.Switches[s].out[port]
	if o == nil {
		return fmt.Errorf("fabric: switch %d port %d unwired", s, port)
	}
	if vl < 0 || vl >= len(o.credits) {
		return fmt.Errorf("fabric: vl %d out of range [0,%d)", vl, len(o.credits))
	}
	// Credits changed without the credit-return wake: the wait lists
	// can no longer be trusted, so fall back to the scan arbiter.
	n.forceScanArb()
	o.credits[vl] += delta
	return nil
}

// TamperOccupancy corrupts the occupancy counter of the input buffer
// of switch s's port facing neighbor, VL vl, without adding or
// removing entries. Mutation-suite hook for the credit-occupancy
// invariant (occ must equal the sum of entry credits).
func (n *Network) TamperOccupancy(s, neighbor, vl, delta int) error {
	port, err := n.PortToNeighbor(s, neighbor)
	if err != nil {
		return err
	}
	in := n.Switches[s].in[port]
	if in == nil {
		return fmt.Errorf("fabric: switch %d port %d unwired", s, port)
	}
	if vl < 0 || vl >= len(in.vls) {
		return fmt.Errorf("fabric: vl %d out of range [0,%d)", vl, len(in.vls))
	}
	n.forceScanArb()
	in.vls[vl].occupied += delta
	return nil
}

// TamperSplit overwrites the configured credit split with an
// ill-formed one, bypassing Config.Validate — the mutation-suite
// stand-in for a misconfigured C_0. The forwarding arithmetic keeps
// using the corrupted split; the credit-split well-formedness check
// must flag it.
func (n *Network) TamperSplit(cMax, cEscape int) {
	n.forceScanArb()
	n.Cfg.Split.CMax = cMax
	n.Cfg.Split.CEscape = cEscape
}

// TamperSwapTableSlots swaps, for every switch and every destination
// LID block, the escape slot (block base) with the first adaptive
// slot — the §4.1 interleaved-table layout misordered by one. The
// escape path then follows minimal adaptive hops instead of up*/down*,
// which is exactly the cyclic-dependency hazard Duato's condition
// exists to exclude. Detected as escape-cdg-acyclic.
func (n *Network) TamperSwapTableSlots() {
	n.forceScanArb()
	for _, sw := range n.Switches {
		tab := sw.Table()
		for h := 0; h < n.Topo.NumHosts(); h++ {
			base := n.Plan.BaseLID(h)
			if n.Plan.RangeSize() < 2 {
				continue
			}
			escape, adaptive := tab.Get(base), tab.Get(base+1)
			if escape == ib.InvalidPort || adaptive == ib.InvalidPort || escape == adaptive {
				continue
			}
			tab.Set(base, adaptive)
			tab.Set(base+1, escape)
		}
	}
}
