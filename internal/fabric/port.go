package fabric

import (
	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// node is anything that owns output ports and must be re-examined when
// one of them frees up or receives credits back. kick schedules the
// re-examination as a coalesced delay-0 event.
type node interface {
	kick()
}

// outPort is the transmitting side of one directed channel: it tracks
// the link's busy time and the credit count of the peer's input buffer
// per VL (IBA's credit-based flow control is per-VL, §5.1).
type outPort struct {
	owner node
	net   *Network // the owner's network: credit-return events are pooled there
	id    ib.PortID

	// ownerSw is the owning switch when the port belongs to one (nil
	// for host CA ports): credit returns wake its credit-waiter list
	// before the follow-up allocation pass (see wake.go).
	ownerSw *Switch

	// Exactly one of peerSwitch/peerHost is set.
	peerSwitch *Switch
	peerPort   ib.PortID // input port number on peerSwitch
	peerHost   *Host

	credits   []int // per VL: credits available at the peer buffer
	busyUntil sim.Time

	// busyAccum integrates link occupancy for utilization reporting.
	busyAccum sim.Time
	// txPackets counts packets sent through this port.
	txPackets uint64

	// down marks a failed cable: the port never transmits again until
	// the subnet manager brings it back.
	down bool
}

func (o *outPort) free(now sim.Time) bool { return !o.down && o.busyUntil <= now }

// inPort is the receiving side: per-VL buffers plus the reverse
// reference used to send credit updates back upstream.
type inPort struct {
	id       ib.PortID
	vls      []*vlBuffer
	upstream *outPort // the transmitter feeding this port
}
