// Package reorder implements destination-side packet reordering, the
// companion mechanism §1 of the paper sketches for traffic that needs
// in-order delivery but still wants adaptive routing: "in-order
// packets could also use adaptive routing if packets were reordered at
// the destination host before being delivered."
//
// A Buffer tracks, per (source, destination) flow, the next expected
// sequence number; packets arriving early are parked until their
// predecessors show up. The cost of adaptivity for ordered traffic is
// then visible as buffer occupancy and added delivery latency, both of
// which the Buffer reports.
package reorder

import (
	"fmt"
	"math"

	"ibasim/internal/sim"
)

// Buffer reassembles sequence order per flow. It keeps no packet: a
// parked packet is its flow's SeqNo and the time it arrived, which is
// all the order and delay accounting needs.
type Buffer struct {
	// expected holds each flow's next expected SeqNo, one slot per
	// (src, dst) pair, indexed src*numHosts+dst. It is read and written
	// on every delivery, so it is dense; held is only touched by the
	// parked minority.
	expected []uint32
	numHosts int

	// held maps the index of a flow with parked packets to their
	// SeqNo -> arrival time. holding has the flow's bit set exactly
	// while it has an entry there, so an in-order delivery of a flow
	// that holds nothing never reads the map.
	held    map[int]map[uint32]sim.Time
	holding []uint64

	// Stats.
	Parked       uint64 // packets that had to wait
	PassedThru   uint64 // packets released immediately
	CurrentHeld  int
	PeakHeld     int      // peak end-of-timestamp occupancy; final after Finalize
	ReorderDelay sim.Time // total extra waiting summed over parked packets

	// Peak occupancy is sampled once per simulated timestamp, at the
	// occupancy left after the last delivery of that timestamp — not
	// at every park. Mid-timestamp transients depend on the dispatch
	// order of equal-time deliveries at different hosts;
	// end-of-timestamp occupancy does not.
	lastAt  sim.Time
	hasLast bool
}

// NewBufferForHosts returns an empty reorder buffer for a subnet of
// numHosts hosts. The source and destination of every delivery must be
// below numHosts.
func NewBufferForHosts(numHosts int) *Buffer {
	flows := numHosts * numHosts
	return &Buffer{
		expected: make([]uint32, flows),
		numHosts: numHosts,
		held:     make(map[int]map[uint32]sim.Time),
		holding:  make([]uint64, (flows+63)/64),
	}
}

// closeStep samples the occupancy at the end of the timestamp that
// just finished (lastAt).
func (b *Buffer) closeStep() {
	if b.CurrentHeld > b.PeakHeld {
		b.PeakHeld = b.CurrentHeld
	}
}

// Deliver accepts the packet with sequence number seq of flow src->dst
// arriving at the destination at time now, and returns how many
// packets it releases in order: 0 when the packet is early and parks,
// otherwise n >= 1, the packet itself and the parked successors
// seq+1 .. seq+n-1 of its flow. Sequence numbers are the per-flow
// SeqNo the fabric assigns at injection; a flow carries at most
// 2^32-1 packets (Deliver panics on a SeqNo past that). Call Finalize
// after the last delivery to close the peak-occupancy accounting.
func (b *Buffer) Deliver(src, dst int, seq uint64, now sim.Time) (n int) {
	if seq >= math.MaxUint32 {
		panic(fmt.Sprintf("reorder: flow %d->%d delivers seq %d; a flow carries at most 2^32-1 packets", src, dst, seq))
	}
	if b.hasLast && now != b.lastAt {
		b.closeStep()
	}
	b.lastAt, b.hasLast = now, true
	di := src*b.numHosts + dst
	word, bit := di>>6, uint64(1)<<(uint(di)&63)
	if s := uint32(seq); s != b.expected[di] {
		// Early: park it. seq > expected always: the fabric does drop
		// packets, but a retry re-injects the dropped packet itself,
		// never a copy, so each SeqNo of a flow arrives at most once
		// and no late duplicate can follow a release. The flip side:
		// a packet lost for good (retries off or exhausted) never
		// arrives, so every later packet of its flow stays parked
		// until the run ends, inflating CurrentHeld and PeakHeld.
		flow := b.held[di]
		if flow == nil {
			flow = make(map[uint32]sim.Time)
			b.held[di] = flow
			b.holding[word] |= bit
		}
		flow[s] = now
		b.Parked++
		b.CurrentHeld++
		return 0
	}
	// In order: release it and any parked run behind it.
	b.PassedThru++
	next := uint32(seq) + 1
	if b.holding[word]&bit != 0 {
		flow := b.held[di]
		for {
			at, ok := flow[next]
			if !ok {
				break
			}
			delete(flow, next)
			b.CurrentHeld--
			b.ReorderDelay += now - at
			next++
		}
		if len(flow) == 0 {
			delete(b.held, di)
			b.holding[word] &^= bit
		}
	}
	b.expected[di] = next
	return int(next - uint32(seq))
}

// Finalize closes the last timestamp's occupancy sample. Idempotent;
// PeakHeld is complete afterwards.
func (b *Buffer) Finalize() {
	if b.hasLast {
		b.closeStep()
		b.hasLast = false
	}
}

// Held returns the number of packets currently parked.
func (b *Buffer) Held() int { return b.CurrentHeld }

// AvgReorderDelay returns the mean extra waiting of parked packets.
func (b *Buffer) AvgReorderDelay() float64 {
	if b.Parked == 0 {
		return 0
	}
	return float64(b.ReorderDelay) / float64(b.Parked)
}

// ParkedFraction returns the share of deliveries that had to wait.
func (b *Buffer) ParkedFraction() float64 {
	total := b.Parked + b.PassedThru
	if total == 0 {
		return 0
	}
	return float64(b.Parked) / float64(total)
}
