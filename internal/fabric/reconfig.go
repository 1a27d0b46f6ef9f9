package fabric

import (
	"fmt"

	"ibasim/internal/topology"
)

func errSwitchRange(s, n int) error {
	return fmt.Errorf("fabric: switch %d out of range [0,%d)", s, n)
}

// SetLinkDown marks the inter-switch cable between a and b as failed
// in both directions: neither output port will start another
// transmission. Packets already serialized or in flight complete
// normally (planned removal semantics: the cable is unplugged after
// the current packet drains). The forwarding tables still reference
// the dead ports until the subnet manager reconfigures the network —
// call subnet.ReconfigureStaged afterwards (zero delays model a
// planned, instantaneous reconfiguration).
//
// Failing an already-failed link is an idempotent no-op.
func (n *Network) SetLinkDown(a, b int) error {
	pa, pb, err := n.linkPorts(a, b)
	if err != nil {
		return err
	}
	n.Switches[a].out[pa].down = true
	n.Switches[b].out[pb].down = true
	return nil
}

// SetLinkUp repairs the cable between a and b: both directions may
// transmit again and any traffic parked on the ports resumes. The
// forwarding tables keep routing around the link until the subnet
// manager reconfigures. Repairing a healthy link is an idempotent
// no-op.
func (n *Network) SetLinkUp(a, b int) error {
	pa, pb, err := n.linkPorts(a, b)
	if err != nil {
		return err
	}
	n.Switches[a].out[pa].down = false
	n.Switches[b].out[pb].down = false
	// A repaired link can unblock any point (down ports never sweep
	// free): wake wholesale before the allocation passes run.
	n.Switches[a].wakeAllPoints()
	n.Switches[b].wakeAllPoints()
	n.Switches[a].kick()
	n.Switches[b].kick()
	return nil
}

// LinkIsDown reports whether the cable between a and b has failed.
// It is symmetric: LinkIsDown(a, b) == LinkIsDown(b, a), and false
// for non-adjacent pairs.
func (n *Network) LinkIsDown(a, b int) bool {
	pa, err := n.PortToNeighbor(a, b)
	if err != nil {
		return false
	}
	return n.Switches[a].out[pa].down
}

// DownLinks returns the topology links whose cables are currently
// failed — the failure set a subnet-manager sweep would discover now.
func (n *Network) DownLinks() []topology.Link {
	var down []topology.Link
	for _, l := range n.Topo.Links {
		if n.LinkIsDown(l.A, l.B) {
			down = append(down, l)
		}
	}
	return down
}

// SetSwitchDown fails switch s whole: every cable touching it (host
// and inter-switch) goes down in both directions, buffered packets
// are discarded with their credits returned upstream (drain
// semantics — the RAM loses power, the flow-control state does not
// lie about it), and packets still on the wire toward s are dropped
// on arrival. Idempotent.
func (n *Network) SetSwitchDown(s int) error {
	sw, err := n.switchByID(s)
	if err != nil {
		return err
	}
	if sw.dead {
		return nil
	}
	sw.dead = true
	for _, o := range sw.out {
		if o == nil {
			continue
		}
		o.down = true
		if o.peerSwitch != nil {
			// The reverse direction: the neighbour's transmitter into s.
			o.peerSwitch.out[o.peerPort].down = true
		} else if o.peerHost != nil {
			o.peerHost.out.down = true
		}
	}
	// Drain: every buffered packet is lost; the upstream transmitters
	// get their credits back so conservation audits stay exact.
	for _, in := range sw.in {
		if in == nil {
			continue
		}
		for in.buf.len() > 0 {
			sw.dropBuffered(in, 0, DropDeadPort)
		}
	}
	return nil
}

// SetSwitchUp repairs switch s: its buffers come back empty, and all
// its cables are re-enabled (a repaired switch returns with working
// ports; combine with explicit SetLinkDown if a specific cable should
// stay failed). The forwarding tables of the rest of the subnet still
// route around s until the subnet manager reconfigures. Idempotent.
func (n *Network) SetSwitchUp(s int) error {
	sw, err := n.switchByID(s)
	if err != nil {
		return err
	}
	if !sw.dead {
		return nil
	}
	sw.dead = false
	for _, o := range sw.out {
		if o == nil {
			continue
		}
		o.down = false
		if o.peerSwitch != nil {
			// The neighbour's transmitter toward s re-enabled: any of
			// its points may unblock.
			o.peerSwitch.out[o.peerPort].down = false
			o.peerSwitch.wakeAllPoints()
			o.peerSwitch.kick()
		} else if o.peerHost != nil {
			o.peerHost.out.down = false
			o.peerHost.kick()
		}
	}
	sw.wakeAllPoints()
	sw.kick()
	return nil
}

// SwitchIsDown reports whether switch s has failed whole.
func (n *Network) SwitchIsDown(s int) bool {
	sw, err := n.switchByID(s)
	return err == nil && sw.dead
}

func (n *Network) switchByID(s int) (*Switch, error) {
	if s < 0 || s >= len(n.Switches) {
		return nil, errSwitchRange(s, len(n.Switches))
	}
	return n.Switches[s], nil
}

// Reroute re-runs the forwarding-table access for every packet
// buffered in the switch, replacing routing decisions that may
// reference ports whose cables have failed. The subnet manager calls
// this on every switch after reprogramming tables; without it,
// already-routed packets would wait forever on dead ports.
//
// Entries whose DLID the reprogrammed table cannot route (possible in
// mid-reconfiguration transients) are dropped and counted instead of
// panicking; Reroute returns how many packets it discarded.
func (sw *Switch) Reroute() (dropped int) {
	for _, in := range sw.in {
		if in == nil {
			continue
		}
		for i := 0; i < in.buf.len(); {
			if !sw.route(in.buf.ids[i]) {
				sw.dropBuffered(in, i, DropUnroutable)
				dropped++
				continue
			}
			i++
		}
	}
	// Rewritten routing decisions invalidate every wait-list
	// registration made against the old ones: wake wholesale.
	sw.wakeAllPoints()
	sw.kick()
	return dropped
}

// dropBuffered discards the entry at index i of an input port's
// buffer (see dropArrival) and recycles it.
func (sw *Switch) dropBuffered(in *inPort, i int, reason DropReason) {
	slab := &sw.net.slab
	id := in.buf.removeAt(i)
	sw.occupancy--
	sw.dropArrival(in.id, slab.pkt[id], reason)
	slab.release(id)
}
