package fabric

import (
	"sync"

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
	vl   int        // input/output VL
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
	kind, sw, host, out, port, vl, n, pkt := ev.kind, ev.sw, ev.host, ev.out, ev.port, ev.vl, ev.n, ev.pkt
	net := ev.network()
	net.putEvent(ev)
	switch kind {
	case evReceive:
		if prof.HotPhasesEnabled() {
			prof.Phase(prof.PhaseRoute, func() { sw.receive(port, vl, pkt) })
			return
		}
		sw.receive(port, vl, pkt)
	case evDeliver:
		host.deliver(pkt)
	case evCreditReturn:
		out.credits[vl] += n
		if net.wake && out.ownerSw != nil {
			out.ownerSw.wakeCredits(out.id, vl)
		}
		out.owner.kick()
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

// scheduleReceive schedules a packet head arrival at (sw, port, vl)
// after delay, without allocating once the pool is warm.
func (n *Network) scheduleReceive(delay sim.Time, sw *Switch, port ib.PortID, vl int, pkt *ib.Packet) {
	ev := n.getEvent()
	ev.kind, ev.sw, ev.port, ev.vl, ev.pkt = evReceive, sw, port, vl, pkt
	n.Engine.ScheduleAction(delay, ev)
}

// scheduleDeliver schedules a packet delivery at the destination CA.
func (n *Network) scheduleDeliver(delay sim.Time, h *Host, pkt *ib.Packet) {
	ev := n.getEvent()
	ev.kind, ev.host, ev.pkt = evDeliver, h, pkt
	n.Engine.ScheduleAction(delay, ev)
}

// scheduleCreditReturn schedules a flow-control update of credits
// credits on (o, vl).
func (n *Network) scheduleCreditReturn(delay sim.Time, o *outPort, vl, credits int) {
	ev := n.getEvent()
	ev.kind, ev.out, ev.vl, ev.n = evCreditReturn, o, vl, credits
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

// pktSlabSize is how many packets one allocation block holds. Packets
// are not recycled — observers (reorder buffers, tracers, tests) may
// hold a delivered packet long after the fabric last touches it, so
// reuse would need a liveness protocol. Slab allocation keeps every
// packet valid for the network's lifetime while cutting the allocator
// to one call per block instead of one per packet; a block is freed as
// a whole when the run's last reference to it drops.
const pktSlabSize = 512

// getPacket carves the next packet from the network's slab. The carve
// order is deterministic.
func (n *Network) getPacket() *ib.Packet {
	if len(n.pktSlab) == 0 {
		n.pktSlab = n.pktBlock()
		n.pktBlocks = append(n.pktBlocks, n.pktSlab)
	}
	pkt := &n.pktSlab[0]
	n.pktSlab = n.pktSlab[1:]
	return pkt
}

// pktBlock returns a fresh packet block: recycled from the configured
// arena when one is set (stale contents are fine — NewPacket overwrites
// the whole struct), freshly allocated otherwise.
func (n *Network) pktBlock() []ib.Packet {
	if a := n.Cfg.PacketArena; a != nil {
		if b := a.get(); b != nil {
			return b
		}
	}
	return make([]ib.Packet, pktSlabSize)
}

// PacketArena recycles packet slab blocks between the runs of a sweep,
// the packet-memory analog of sim.QueueArena: the load points of a
// sweep each allocate tens of thousands of packets, and handing a
// finished run's blocks to the next cuts the dominant share of the
// sweep's GC pressure. Thread-safe — load points run on a worker pool.
//
// Safety contract: blocks come back via Network.Recycle, whose caller
// asserts the run is over and no *ib.Packet reference survives it
// (observers drain with the network). Reusing a block while a packet
// in it is still referenced would silently corrupt that packet.
type PacketArena struct {
	mu     sync.Mutex
	blocks [][]ib.Packet
}

// NewPacketArena returns an empty arena.
func NewPacketArena() *PacketArena { return &PacketArena{} }

func (a *PacketArena) get() []ib.Packet {
	a.mu.Lock()
	defer a.mu.Unlock()
	if last := len(a.blocks) - 1; last >= 0 {
		b := a.blocks[last]
		a.blocks[last] = nil
		a.blocks = a.blocks[:last]
		return b
	}
	return nil
}

func (a *PacketArena) put(blocks [][]ib.Packet) {
	if len(blocks) == 0 {
		return
	}
	a.mu.Lock()
	a.blocks = append(a.blocks, blocks...)
	a.mu.Unlock()
}
