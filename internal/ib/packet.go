package ib

import (
	"fmt"

	"ibasim/internal/sim"
)

// Packet is one IBA data packet traversing the simulated subnet. The
// simulator works at packet granularity (virtual cut-through forwards
// and buffers whole packets), so no flit structure is modelled.
//
// The struct is exactly one 64-byte cache line: a saturated run holds
// one Packet for every packet at the head of a source queue, on a wire
// or in a switch buffer, so the layout is a memory budget
// (TestPacketIsOneCacheLine pins it). A packet still waiting behind
// the head is a delta-coded entry of a byte or two, not a Packet (see
// fabric's srcqueue.go), and a generated packet's Packet is reused
// once it is delivered or lost for good (see Pooled). The source LID
// is not stored; AddressPlan.BaseLID(Src) gives it.
type Packet struct {
	ID uint64 // globally unique, for tracing and loss accounting

	// SeqNo numbers packets per (Src, Dst) flow in generation order;
	// deterministic packets must be delivered in SeqNo order.
	SeqNo uint64

	CreatedAt   sim.Time // when the generator produced it
	DeliveredAt sim.Time // when the tail reached the destination CA

	// QueuedAt is when the packet last entered its source queue
	// (initial injection or a retry); the host's send timeout is
	// measured against it.
	QueuedAt sim.Time

	Src  int32 // source host
	Dst  int32 // destination host
	Size int32 // bytes on the wire
	Hops int32 // switches traversed so far

	// Attempts counts fault-recovery retries: each time the fabric
	// drops the packet and the source re-injects it, Attempts grows by
	// one. Zero for packets that never met a fault.
	Attempts int32

	DLID LID // destination LID; low bit encodes the adaptivity request

	// Adaptive mirrors DLID's low bit for convenience; it is set by
	// the traffic generator and must agree with the address plan.
	Adaptive bool

	// Pooled marks a packet the fabric built for generated traffic.
	// The network reuses its memory once it is delivered or lost for
	// good, so no observer may keep a pointer to it past a hook call.
	// A packet built by NewPacket is never pooled and stays its
	// caller's. The field fills the struct's last padding byte.
	Pooled bool
}

// Credits returns the flow-control credits the packet consumes.
func (p *Packet) Credits() int { return Credits(int(p.Size)) }

// Latency returns the end-to-end packet latency: generation at the
// source host to delivery at the destination end node, matching the
// paper's latency definition (footnote 4).
func (p *Packet) Latency() sim.Time { return p.DeliveredAt - p.CreatedAt }

// String identifies the packet for traces and test failures.
func (p *Packet) String() string {
	mode := "det"
	if p.Adaptive {
		mode = "adp"
	}
	return fmt.Sprintf("pkt#%d %d->%d %s %dB seq=%d", p.ID, p.Src, p.Dst, mode, p.Size, p.SeqNo)
}
