package fabric

import (
	"fmt"

	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// Host models one end node's channel adapter port: an injection queue
// feeding the link to its switch, and a sink that accounts deliveries.
// Source queues are unbounded — the paper measures accepted traffic
// versus offered load, so injection backpressure shows up as queueing
// delay rather than drops.
type Host struct {
	net *Network
	id  int

	out *outPort // link toward the attached switch

	// queue[qhead:] is the live source queue. Popping advances qhead
	// instead of re-slicing so the backing array survives the
	// empty↔shallow oscillation of an unsaturated host (re-slicing
	// walks the base pointer forward and forces append to reallocate
	// roughly once per packet); pushes compact the consumed prefix
	// away once it dominates, keeping the array bounded by the peak
	// standing depth.
	queue      []*ib.Packet
	qhead      int
	injPending bool

	// injectFn is the host's recurring delay-0 event closure, bound
	// once at wiring so scheduling it never allocates.
	injectFn func()

	// timeoutFn and timeoutArmed implement the send timeout of
	// Cfg.Retry: at most one expiry check is in flight, armed for the
	// deadline of the current queue head. Inactive (never scheduled)
	// when Retry.SendTimeout is 0.
	timeoutFn    func()
	timeoutArmed sim.Time // deadline the pending check covers; 0 = none

	// nextSeq numbers generated packets per destination (indexed by
	// destination host ID), so the deliver side can verify in-order
	// arrival of deterministic traffic. A dense slice: every host
	// eventually talks to most destinations under the paper's traffic
	// patterns, and the per-packet map hash was measurable.
	nextSeq []uint64

	// Injected and Delivered count packets for quick accounting;
	// detailed metrics hang off the Network callbacks.
	Injected  uint64
	Delivered uint64
}

// ID returns the host's global index.
func (h *Host) ID() int { return h.id }

// Engine returns the simulation engine this host's events run on.
// Traffic generators schedule injection events on it.
func (h *Host) Engine() *sim.Engine { return h.net.Engine }

// QueueLen returns the number of packets waiting in the source queue.
func (h *Host) QueueLen() int { return len(h.queue) - h.qhead }

// HeadID returns the ID of the packet at the source-queue head, or 0
// when the queue is empty (watchdog progress probe).
func (h *Host) HeadID() uint64 {
	if h.QueueLen() == 0 {
		return 0
	}
	return h.queue[h.qhead].ID
}

// qPush appends to the source queue, compacting the consumed prefix
// first when it has grown past half the backing array.
func (h *Host) qPush(pkt *ib.Packet) {
	if h.qhead > 32 && h.qhead*2 >= len(h.queue) {
		n := copy(h.queue, h.queue[h.qhead:])
		for i := n; i < len(h.queue); i++ {
			h.queue[i] = nil
		}
		h.queue = h.queue[:n]
		h.qhead = 0
	}
	h.queue = append(h.queue, pkt)
}

// qPop removes and returns the queue head; the caller must have
// checked QueueLen() > 0.
func (h *Host) qPop() *ib.Packet {
	pkt := h.queue[h.qhead]
	h.queue[h.qhead] = nil // release the reference for GC
	h.qhead++
	if h.qhead == len(h.queue) {
		h.queue = h.queue[:0]
		h.qhead = 0
	}
	return pkt
}

// Inject hands a generated packet to the CA. The packet's Src must be
// this host; DLID and Adaptive must already agree with the network's
// address plan (traffic generators use Network.NewPacket, which
// guarantees this).
func (h *Host) Inject(pkt *ib.Packet) {
	if pkt.Src != h.id {
		panic(fmt.Sprintf("fabric: packet %v injected at host %d", pkt, h.id))
	}
	pkt.SeqNo = h.nextSeq[pkt.Dst]
	h.nextSeq[pkt.Dst]++
	pkt.QueuedAt = h.net.Engine.Now()
	h.qPush(pkt)
	if h.net.OnCreated != nil {
		h.net.OnCreated(pkt)
	}
	h.armSendTimeout()
	h.kick()
}

// requeue re-enters a packet the fabric dropped (fault-recovery
// retry): it keeps its identity and SeqNo but restarts its journey.
func (h *Host) requeue(pkt *ib.Packet) {
	pkt.Hops = 0
	pkt.QueuedAt = h.net.Engine.Now()
	h.qPush(pkt)
	h.armSendTimeout()
	h.kick()
}

// kick schedules an injection attempt at the current time (coalesced).
func (h *Host) kick() {
	if h.injPending {
		return
	}
	h.injPending = true
	h.net.Engine.Schedule(0, h.injectFn)
}

// finishWiring binds the host's recurring event closures once the
// link to its switch exists.
func (h *Host) finishWiring() {
	h.injectFn = func() {
		h.injPending = false
		h.tryInject()
	}
	h.timeoutFn = func() {
		h.timeoutArmed = 0
		h.expireHead()
		h.armSendTimeout()
	}
}

// armSendTimeout schedules (at most one) expiry check for the current
// queue head's deadline. No-op when the timeout is disabled or a check
// already covers an earlier-or-equal deadline.
func (h *Host) armSendTimeout() {
	to := h.net.Cfg.Retry.SendTimeout
	if to <= 0 || h.QueueLen() == 0 {
		return
	}
	deadline := h.queue[h.qhead].QueuedAt + to
	if h.timeoutArmed != 0 && h.timeoutArmed <= deadline {
		return
	}
	h.timeoutArmed = deadline
	now := h.net.Engine.Now()
	delay := deadline - now
	if delay < 0 {
		delay = 0
	}
	h.net.Engine.Schedule(delay, h.timeoutFn)
}

// expireHead drops every queue-head packet whose send deadline has
// passed (the link stayed down or starved past Retry.SendTimeout).
func (h *Host) expireHead() {
	to := h.net.Cfg.Retry.SendTimeout
	if to <= 0 {
		return
	}
	now := h.net.Engine.Now()
	for h.QueueLen() > 0 && now-h.queue[h.qhead].QueuedAt >= to {
		h.net.dropPacket(h.qPop(), DropTimeout)
	}
}

// tryInject starts transmitting queued packets while the link is free
// and the switch's input buffer has room for the whole packet.
func (h *Host) tryInject() {
	now := h.net.Engine.Now()
	for h.QueueLen() > 0 {
		pkt := h.queue[h.qhead]
		if !h.out.free(now) {
			return
		}
		vl := pkt.SL % h.net.Cfg.NumVLs
		if !h.net.Cfg.Split.CanUseEscape(h.out.credits[vl], pkt.Credits()) {
			return
		}
		h.qPop()
		h.out.credits[vl] -= pkt.Credits()
		ser := ib.SerializationTime(pkt.Size)
		h.out.busyUntil = now + ser
		h.out.busyAccum += ser
		h.out.txPackets++
		pkt.InjectedAt = now
		h.Injected++
		h.net.moved++

		h.net.scheduleReceive(ib.PropagationDelay, h.out.peerSwitch, h.out.peerPort, vl, pkt)
		h.net.scheduleHostKick(ser, h)
		return // the link is now busy; the ser-kick continues the queue
	}
}

// deliver sinks a packet arriving at this host.
func (h *Host) deliver(pkt *ib.Packet) {
	if pkt.Dst != h.id {
		panic(fmt.Sprintf("fabric: packet %v delivered to host %d", pkt, h.id))
	}
	pkt.DeliveredAt = h.net.Engine.Now()
	h.Delivered++
	h.net.moved++
	if h.net.OnDelivered != nil {
		h.net.OnDelivered(pkt)
	}
}
