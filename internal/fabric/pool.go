package fabric

import (
	"ibasim/internal/ib"
	"ibasim/internal/prof"
	"ibasim/internal/sim"
)

// Hot-path object pools. Every packet hop schedules a handful of
// events (peer receive, credit return, delivery, follow-up kicks) and
// buffers one slab entry; allocating those on the heap per hop
// dominated the simulator's allocation profile. The event pool is a
// plain freelist on the Network rather than a sync.Pool: the engine
// dispatches sequentially, so no locking is needed, and freelist reuse
// is deterministic — it cannot perturb event ordering across runs.
// Buffered-packet state lives in the network's struct-of-arrays
// entrySlab (see vlbuffer.go).

// Event kinds dispatched by fabricEvent.Do.
const (
	evReceive      uint8 = iota // packet head arrives at a switch input port
	evDeliver                   // packet tail arrives at the destination CA
	evCreditReturn              // flow-control update reaches the transmitter
	evRequeue                   // retry policy re-enters a dropped packet at its source
	evSwitchKick                // delayed allocation-pass kick (routing done / link freed)
	evHostKick                  // delayed injection kick (host link freed)
)

// fabricEvent is a pooled sim.Action carrying the payload of one
// hot-path event. The same struct type serves all kinds; unused fields
// stay nil/zero. It releases itself back to its network's pool before
// running the payload, so a hop's event storage is recycled by the
// very events it schedules.
type fabricEvent struct {
	kind uint8

	sw   *Switch    // evReceive / evSwitchKick target
	host *Host      // evDeliver / evRequeue / evHostKick target
	out  *outPort   // evCreditReturn target
	port ib.PortID  // evReceive input port
	n    int        // credits returned
	pkt  *ib.Packet // in-flight packet
}

// Do dispatches the event. Payload fields are copied to locals and the
// struct is returned to the pool first, so work scheduled by the
// payload can reuse it immediately. The two kick kinds and a credit
// return each schedule their owner's coalesced delay-0 pass (through
// arbPending/injPending); the engine's immediates FIFO makes that a
// slice append and read (see sim.Engine.imm).
func (ev *fabricEvent) Do() {
	kind, sw, host, out, port, n, pkt := ev.kind, ev.sw, ev.host, ev.out, ev.port, ev.n, ev.pkt
	net := ev.network()
	net.putEvent(ev)
	switch kind {
	case evReceive:
		if prof.HotPhasesEnabled() {
			prof.Phase(prof.PhaseRoute, func() { sw.receive(port, pkt) })
			return
		}
		sw.receive(port, pkt)
	case evDeliver:
		host.deliver(pkt)
	case evCreditReturn:
		out.returns--
		out.credits += n
		if sw := out.ownerSw; sw != nil {
			if net.wake {
				sw.wakeCredits(out.id)
			}
			sw.kick()
		} else {
			out.ownerHost.kick()
		}
	case evRequeue:
		host.requeue(pkt)
	case evSwitchKick:
		sw.kick()
	case evHostKick:
		host.kick()
	}
}

// network returns the network that owns the event's target, whose
// freelist the event came from.
func (ev *fabricEvent) network() *Network {
	switch {
	case ev.sw != nil:
		return ev.sw.net
	case ev.host != nil:
		return ev.host.net
	}
	return ev.out.net
}

func (n *Network) getEvent() *fabricEvent {
	if last := len(n.evFree) - 1; last >= 0 {
		ev := n.evFree[last]
		n.evFree = n.evFree[:last]
		return ev
	}
	return &fabricEvent{}
}

func (n *Network) putEvent(ev *fabricEvent) {
	*ev = fabricEvent{} // drop packet/port references for GC
	n.evFree = append(n.evFree, ev)
}

// scheduleReceive schedules a packet head arrival at (sw, port) after
// delay, without allocating once the pool is warm.
func (n *Network) scheduleReceive(delay sim.Time, sw *Switch, port ib.PortID, pkt *ib.Packet) {
	ev := n.getEvent()
	ev.kind, ev.sw, ev.port, ev.pkt = evReceive, sw, port, pkt
	n.Engine.ScheduleAction(delay, ev)
}

// scheduleDeliver schedules a packet delivery at the destination CA.
func (n *Network) scheduleDeliver(delay sim.Time, h *Host, pkt *ib.Packet) {
	ev := n.getEvent()
	ev.kind, ev.host, ev.pkt = evDeliver, h, pkt
	n.Engine.ScheduleAction(delay, ev)
}

// scheduleCreditReturn schedules a flow-control update of credits
// credits on o, counting it in o.returns until it dispatches. Every
// caller passes at least the propagation delay.
func (n *Network) scheduleCreditReturn(delay sim.Time, o *outPort, credits int) {
	o.returns++
	ev := n.getEvent()
	ev.kind, ev.out, ev.n = evCreditReturn, o, credits
	n.Engine.ScheduleAction(delay, ev)
}

// scheduleRequeue schedules the retry re-injection of a dropped packet
// at its source host.
func (n *Network) scheduleRequeue(delay sim.Time, h *Host, pkt *ib.Packet) {
	ev := n.getEvent()
	ev.kind, ev.host, ev.pkt = evRequeue, h, pkt
	n.Engine.ScheduleAction(delay, ev)
}

// scheduleSwitchKick schedules a pooled allocation-pass kick for sw
// after delay. The pooled action occupies the exact queue position the
// old bound-method closure did — same push site, same sequence number
// — so replacing the closure cannot perturb dispatch order.
func (n *Network) scheduleSwitchKick(delay sim.Time, sw *Switch) {
	ev := n.getEvent()
	ev.kind, ev.sw = evSwitchKick, sw
	n.Engine.ScheduleAction(delay, ev)
}

// scheduleHostKick schedules a pooled injection kick for h after delay.
func (n *Network) scheduleHostKick(delay sim.Time, h *Host) {
	ev := n.getEvent()
	ev.kind, ev.host = evHostKick, h
	n.Engine.ScheduleAction(delay, ev)
}

// pktSlabSize is how many packets one allocation block holds. A
// generated packet is carved when it reaches the head of its source
// queue (see Host.loadHead), so a saturated run's backlog takes no
// slab space. Slab allocation cuts the allocator to one call per block
// instead of one per packet.
//
// A generated packet (ib.Packet.Pooled) goes back to the network's
// pktFree list once it is delivered, after OnDelivered, or lost for
// good, after OnDropped, and getPacket hands it out again before
// carving: a run's packets are then the ones in flight, not every
// block that one live packet would pin. The hooks' contract (see
// Network.OnCreated) is what makes that safe: no observer keeps a
// packet pointer past the call. Packets from NewPacket are never
// recycled, so a caller may read them after the run.
const pktSlabSize = 512

// getPacket returns a packet for the caller to fill in whole: the one
// recycled last, or else the next one carved from the network's slab.
// Both orders are deterministic.
func (n *Network) getPacket() *ib.Packet {
	if last := len(n.pktFree) - 1; last >= 0 {
		pkt := n.pktFree[last]
		n.pktFree = n.pktFree[:last]
		return pkt
	}
	if len(n.pktSlab) == 0 {
		n.pktSlab = make([]ib.Packet, pktSlabSize)
	}
	pkt := &n.pktSlab[0]
	n.pktSlab = n.pktSlab[1:]
	n.carved++
	return pkt
}

// PacketsCarved returns how many packets the network has carved from
// its slab blocks so far. A recycled packet is reused before a new one
// is carved, so on a run that only generates traffic this is the peak
// number of packets alive at once: at source-queue heads, on wires and
// in switch buffers.
func (n *Network) PacketsCarved() uint64 { return n.carved }

// putPacket recycles pkt if the network built it for generated
// traffic. Every caller has made its last read of the packet.
func (n *Network) putPacket(pkt *ib.Packet) {
	if pkt.Pooled {
		n.pktFree = append(n.pktFree, pkt)
	}
}
