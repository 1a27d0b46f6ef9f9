package fabric

import (
	"fmt"
	"math"

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

	// The source queue is head followed by the entries of queue, a
	// chunked FIFO of coded entries (see srcqueue.go). head is the
	// packet of the oldest entry, decoded and built when the entry got
	// there (see loadHead), and nil while the source queue is empty;
	// headRequeued says it is a retry. prebuilt holds, in queue order,
	// the packets of the other entPrebuilt entries.
	queue        pktFIFO
	head         *ib.Packet
	headRequeued bool
	prebuilt     pktQueue
	injPending   bool

	// stream replays the packets Generate queued (see Stream).
	stream Stream

	// injectFn is the host's recurring delay-0 event closure, bound
	// once at wiring so scheduling it never allocates.
	injectFn func()

	// timeoutFn and timeoutArmed implement the send timeout of
	// Cfg.Retry: at most one expiry check is in flight, armed for the
	// deadline of the current queue head. Inactive (never scheduled)
	// when Retry.SendTimeout is 0.
	timeoutFn    func()
	timeoutArmed sim.Time // deadline the pending check covers; 0 = none

	// nextSeq numbers packets per destination (indexed by destination
	// host ID), so the deliver side can verify in-order arrival of
	// deterministic traffic. A packet takes its number when it leaves
	// the source queue (see take); the queue releases packets in the
	// order they entered, so the numbering is the order of generation.
	// A dense slice: every host eventually talks to most destinations
	// under the paper's traffic patterns, and the per-packet map hash
	// was measurable. A flow carries at most 2^32-1 packets (take
	// panics past that), so a number fits 32 bits.
	nextSeq []uint32

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
func (h *Host) QueueLen() int {
	if h.head == nil {
		return 0
	}
	return 1 + h.queue.len()
}

// HeadID returns the ID of the packet at the source-queue head, or 0
// when the queue is empty (watchdog progress probe).
func (h *Host) HeadID() uint64 {
	if h.head == nil {
		return 0
	}
	return h.head.ID
}

// Stream replays, in order, the packets Host.Generate queued at one
// host. A generated packet waits as a coded ID (see srcEntry); when it
// reaches the head of the source queue, the host reads the rest of it
// from Next, once. Next must return exactly what the matching Generate
// call had: the simulated time of the call, the destination, the size
// in bytes and the adaptive request. A generator whose draws depend
// only on the host's own RNG stream meets this by stepping a copy of
// that stream (see traffic.Generator.Start).
type Stream interface {
	Next() (at sim.Time, dst, size int, adaptive bool)
}

// SetStream attaches the stream that replays this host's generated
// packets. Generate needs one.
func (h *Host) SetStream(s Stream) { h.stream = s }

// Generate creates a packet of size bytes from this host to dst at the
// current time and queues it: the traffic generator's entry point, and
// the only way a fresh packet enters a source queue. The packet takes
// its ID and, under source multipath, its DLID offset now, through the
// same draw as Network.NewPacket, but waits as a coded srcEntry; the
// host's Stream supplies the rest when it reaches the head. OnCreated,
// when set, sees it through the network's scratch packet (see
// Network.OnCreated).
//
// A generation that joins a blocked queue schedules no injection pass:
// the pass would fail wherever it ran in this instant (see
// injectionBlocked), and a failed pass changes nothing.
func (h *Host) Generate(dst, size int, adaptive bool) {
	n := h.net
	if uint(dst) >= uint(len(n.Hosts)) || size <= 0 || size > ib.MTU {
		panic(fmt.Sprintf("fabric: host %d generates %d B to host %d (MTU %d, %d hosts)", h.id, size, dst, ib.MTU, len(n.Hosts)))
	}
	if h.stream == nil {
		panic(fmt.Sprintf("fabric: host %d generates with no stream attached", h.id))
	}
	id, path := n.address()
	now := n.Engine.Now()
	blocked := h.head != nil && h.injectionBlocked(now)
	n.created++
	h.push(freshEntry(id, path))
	if n.OnCreated != nil {
		n.scratch = h.packetOf(id, now, dst, size, adaptive, path)
		n.OnCreated(&n.scratch)
	}
	h.armSendTimeout()
	if !blocked {
		h.kick()
	}
}

// Inject hands an existing packet to the CA. The packet's Src must be
// this host; DLID and Adaptive must already agree with the network's
// address plan (Network.NewPacket guarantees this). It takes its
// flow's SeqNo when it leaves the queue, like a generated packet.
func (h *Host) Inject(pkt *ib.Packet) {
	if int(pkt.Src) != h.id {
		panic(fmt.Sprintf("fabric: packet %v injected at host %d", pkt, h.id))
	}
	pkt.QueuedAt = h.net.Engine.Now()
	h.net.created++
	h.pushPrebuilt(pkt, entPrebuilt)
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
	h.pushPrebuilt(pkt, entRequeued)
	h.armSendTimeout()
	h.kick()
}

// pushPrebuilt queues an existing packet behind every waiting entry;
// e is entPrebuilt or entRequeued.
func (h *Host) pushPrebuilt(pkt *ib.Packet, e srcEntry) {
	h.prebuilt.push(pkt)
	h.push(e)
}

// push appends e to the source queue. An entry that lands at the head
// is decoded and built at once.
func (h *Host) push(e srcEntry) {
	h.queue.push(e)
	if h.head == nil {
		h.loadHead()
	}
}

// loadHead decodes the oldest entry of queue, which has just reached
// the head of the source queue, and builds its packet: a prebuilt one
// leaves the prebuilt FIFO; a fresh one takes a packet from the
// network (see getPacket), is filled from the next packet of the
// host's stream and the entry, and is marked Pooled. The head's
// readers (take, the injection pass, HeadID and the send timeout) read
// this packet.
func (h *Host) loadHead() {
	e := h.queue.pop()
	h.headRequeued = e == entRequeued
	if e&entPrebuilt != 0 {
		h.head = h.prebuilt.pop()
		return
	}
	at, dst, size, adaptive := h.stream.Next()
	h.head = h.net.getPacket()
	*h.head = h.packetOf(e.id(), at, dst, size, adaptive, e.path())
	h.head.Pooled = true
}

// packetOf returns a generated packet as it entered the queue: SeqNo
// 0, no hop taken.
func (h *Host) packetOf(id uint64, at sim.Time, dst, size int, adaptive bool, path int) ib.Packet {
	dlid, adaptive := h.net.dlid(dst, adaptive, path)
	return ib.Packet{
		ID:        id,
		CreatedAt: at,
		QueuedAt:  at,
		Src:       int32(h.id),
		Dst:       int32(dst),
		Size:      int32(size),
		DLID:      dlid,
		Adaptive:  adaptive,
	}
}

// take removes the head and returns its packet, and builds the next
// head. Every packet but a retry takes its flow's next SeqNo here.
func (h *Host) take() *ib.Packet {
	pkt, requeued := h.head, h.headRequeued
	h.head = nil
	if h.queue.len() > 0 {
		h.loadHead()
	}
	if !requeued {
		seq := h.nextSeq[pkt.Dst]
		if seq == math.MaxUint32 {
			panic(fmt.Sprintf("fabric: flow %d->%d passes 2^32-1 packets", h.id, pkt.Dst))
		}
		pkt.SeqNo = uint64(seq)
		h.nextSeq[pkt.Dst] = seq + 1
	}
	return pkt
}

// injectionBlocked reports whether an injection pass for the current
// head would fail at every point of this instant. It holds when the
// link is up, no send-timeout check is due (it could drop the head),
// and either the link is busy past now or the head lacks credits with
// no credit return in flight. busyUntil changes only through this
// host's own transmissions, which need a free link; credits rise only
// through credit-return events, counted from scheduling to dispatch
// and never scheduled with delay 0 (no tamper model or mutation hook
// touches a host's link or credits). So no event of this instant can
// make such a pass succeed, and a pending pass (injPending) fails the
// same way. The caller needs a non-empty queue.
func (h *Host) injectionBlocked(now sim.Time) bool {
	o := h.out
	if o.down || (h.timeoutArmed != 0 && h.timeoutArmed <= now) {
		return false
	}
	if o.busyUntil > now {
		return true
	}
	if o.returns > 0 {
		return false
	}
	return !h.net.Cfg.Split.CanUseEscape(o.credits, h.head.Credits())
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
	if to <= 0 || h.head == nil {
		return
	}
	deadline := h.head.QueuedAt + to
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
	for h.head != nil && now-h.head.QueuedAt >= to {
		h.net.dropPacket(h.take(), DropTimeout)
	}
}

// tryInject starts transmitting the head packet if the link is free
// and the switch's input buffer has room for the whole packet. The
// link is then busy; the kick scheduled at its end continues the
// queue.
func (h *Host) tryInject() {
	now := h.net.Engine.Now()
	if h.head == nil || !h.out.free(now) {
		return
	}
	credits := h.head.Credits()
	if !h.net.Cfg.Split.CanUseEscape(h.out.credits, credits) {
		return
	}
	pkt := h.take()
	h.out.credits -= credits
	ser := ib.SerializationTime(int(pkt.Size))
	h.out.busyUntil = now + ser
	h.out.busyAccum += ser
	h.out.txPackets++
	h.Injected++

	h.net.scheduleReceive(ib.PropagationDelay, h.out.peerSwitch, h.out.peerPort, pkt)
	h.net.scheduleHostKick(ser, h)
}

// deliver sinks a packet arriving at this host and, once OnDelivered
// has seen it, recycles it.
func (h *Host) deliver(pkt *ib.Packet) {
	if int(pkt.Dst) != h.id {
		panic(fmt.Sprintf("fabric: packet %v delivered to host %d", pkt, h.id))
	}
	pkt.DeliveredAt = h.net.Engine.Now()
	h.Delivered++
	if h.net.OnDelivered != nil {
		h.net.OnDelivered(pkt)
	}
	h.net.putPacket(pkt)
}
