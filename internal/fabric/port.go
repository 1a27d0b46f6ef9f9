package fabric

import (
	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// outPort is the transmitting side of one directed channel: it tracks
// the link's busy time and the credit count of the peer's input buffer
// (IBA's credit-based flow control, §5.1).
type outPort struct {
	net *Network // the owner's network: credit-return events are pooled there
	id  ib.PortID

	// Exactly one of ownerSw/ownerHost is set: the node re-examined
	// (kicked) when credits come back. A switch first wakes its
	// credit-waiter list (see wake.go).
	ownerSw   *Switch
	ownerHost *Host

	// Exactly one of peerSwitch/peerHost is set.
	peerSwitch *Switch
	peerPort   ib.PortID // input port number on peerSwitch
	peerHost   *Host

	credits   int // credits available at the peer buffer
	busyUntil sim.Time

	// returns counts this port's credit-return events in flight:
	// scheduled and not yet dispatched. A host reads it to prove an
	// injection pass would fail (Host.injectionBlocked).
	returns int

	// busyAccum integrates link occupancy for utilization reporting.
	busyAccum sim.Time
	// txPackets counts packets sent through this port.
	txPackets uint64

	// down marks a failed cable: the port never transmits again until
	// the subnet manager brings it back.
	down bool
}

func (o *outPort) free(now sim.Time) bool { return !o.down && o.busyUntil <= now }

// inPort is the receiving side: the port's buffer plus the reverse
// reference used to send credit updates back upstream.
type inPort struct {
	id       ib.PortID
	buf      *vlBuffer
	upstream *outPort // the transmitter feeding this port
}
