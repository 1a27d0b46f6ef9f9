package fabric

import (
	"fmt"

	"ibasim/internal/core"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// Buffered-packet state lives in a struct-of-arrays slab, one per
// network, indexed by dense int32 entry IDs, and the hottest
// per-packet reads (credits and the adaptive-service bit) are cached
// here at arrival so the scan never chases the *ib.Packet at all.
// Per-buffer value entries in its place ran the 64-switch Figure 3
// panel about 1.12x slower, mostly in garbage collection (DESIGN.md
// §15).

// Entry flag bits (entrySlab.flags).
const (
	// entryPktAdaptive caches pkt.Adaptive: the packet travels in
	// adaptive service mode (LSB of its DLID set).
	entryPktAdaptive uint8 = 1 << iota
	// entryChosenAdaptive records which §4.4 credit rule the fixed
	// immediate-selection choice must satisfy.
	entryChosenAdaptive
)

// entrySlabChunk is how many entries one growth step adds. Growth only
// happens while the standing buffered-packet population reaches a new
// high-water mark; at steady state the free list recycles IDs and the
// arrays never move.
const entrySlabChunk = 256

// entrySlab is the struct-of-arrays store for one network's buffered
// packets. Single-threaded (the engine dispatches sequentially), so no
// locking; free-list reuse is
// deterministic and cannot perturb event ordering across runs.
type entrySlab struct {
	pkt     []*ib.Packet
	readyAt []sim.Time // head arrival + routing delay; earliest service

	// Routing options returned by the forwarding-table access. The
	// adaptive slice aliases the table's block cache, never the entry.
	escape   []ib.PortID
	adaptive [][]ib.PortID

	// chosen is the fixed output selected at routing time when the
	// switch uses immediate selection (§4.3); InvalidPort when the
	// decision is deferred to arbitration.
	chosen []ib.PortID

	// credits caches pkt.Credits(); flags caches pkt.Adaptive and
	// carries the chosen-rule bit.
	credits []int32
	flags   []uint8

	free []int32
}

// alloc returns a free entry ID with every field zeroed (chosen at
// InvalidPort); the caller fills the routing state.
func (s *entrySlab) alloc() int32 {
	if last := len(s.free) - 1; last >= 0 {
		id := s.free[last]
		s.free = s.free[:last]
		return id
	}
	return s.grow()
}

// grow extends every column by one chunk, queues the fresh IDs on the
// free list and returns the first of them.
func (s *entrySlab) grow() int32 {
	base := int32(len(s.pkt))
	s.pkt = append(s.pkt, make([]*ib.Packet, entrySlabChunk)...)
	s.readyAt = append(s.readyAt, make([]sim.Time, entrySlabChunk)...)
	s.escape = append(s.escape, make([]ib.PortID, entrySlabChunk)...)
	s.adaptive = append(s.adaptive, make([][]ib.PortID, entrySlabChunk)...)
	s.chosen = append(s.chosen, make([]ib.PortID, entrySlabChunk)...)
	s.credits = append(s.credits, make([]int32, entrySlabChunk)...)
	s.flags = append(s.flags, make([]uint8, entrySlabChunk)...)
	for id := base; id < base+entrySlabChunk; id++ {
		s.chosen[id] = ib.InvalidPort
	}
	// Stack the chunk in reverse so IDs pop in ascending order.
	for id := base + entrySlabChunk - 1; id > base; id-- {
		s.free = append(s.free, id)
	}
	return base
}

// release recycles an entry after its packet left the buffer, dropping
// the packet and adaptive references for GC.
func (s *entrySlab) release(id int32) {
	s.pkt[id] = nil
	s.readyAt[id] = 0
	s.escape[id] = 0
	s.adaptive[id] = nil
	s.chosen[id] = ib.InvalidPort
	s.credits[id] = 0
	s.flags[id] = 0
	s.free = append(s.free, id)
}

// vlBuffer models the physical buffer of an input port's data VL,
// logically divided per Figure 2: the first Split.CAdaptiveCap()
// credits form the adaptive queue, the rest the escape queue. It is a
// single FIFO with two service points:
//
//   - the buffer head (head of the adaptive queue), always servable;
//   - the escape head: the first packet whose storage starts inside
//     the escape region, servable independently (its own connection
//     to the internal crossbar).
//
// Departures shift later packets toward the head, which is exactly the
// escape→adaptive queue transition §4.4 describes (and §3 proves
// harmless for deadlock freedom).
//
// ids holds slab entry IDs in FIFO order; slab points at the network's
// slab (stamped by finishWiring).
type vlBuffer struct {
	slab     *entrySlab
	split    core.CreditSplit
	ids      []int32
	occupied int // credits currently stored

	// Memoized escapeService result. The walk is a pure function of the
	// FIFO contents (per-entry credits and the adaptive bit are fixed at
	// arrival), so it only changes when ids does: push and removeAt mark
	// the cache dirty, and the saturated arbitration loop — which probes
	// the escape connection on every pass over an unchanged buffer —
	// pays the walk once instead of per probe. escIdx escCacheDirty
	// means recompute.
	escIdx int
	escID  int32

	// adaptiveQueues reports whether the switch splits this buffer at
	// all; plain deterministic switches expose only the buffer head.
	adaptiveQueues bool
}

// escCacheDirty marks the memoized escape-service point as stale; any
// valid result is either -1 (nothing to serve) or a FIFO index >= 0.
const escCacheDirty = -2

func newVLBuffer(split core.CreditSplit, adaptiveQueues bool) *vlBuffer {
	return &vlBuffer{split: split, adaptiveQueues: adaptiveQueues, escIdx: escCacheDirty}
}

// push appends an arriving packet. It panics if the packet does not
// fit: the upstream credit accounting must have prevented that, so an
// overflow is a flow-control bug, not a runtime condition.
func (b *vlBuffer) push(id int32) {
	c := int(b.slab.credits[id])
	if b.occupied+c > b.split.CMax {
		panic(fmt.Sprintf("fabric: VL buffer overflow: %d+%d > %d (flow control violated)",
			b.occupied, c, b.split.CMax))
	}
	b.ids = append(b.ids, id)
	b.occupied += c
	b.escIdx = escCacheDirty
}

// head returns the buffer-head service point's entry ID, or -1 when
// empty.
func (b *vlBuffer) head() int32 {
	if len(b.ids) == 0 {
		return -1
	}
	return b.ids[0]
}

// escapeService returns the entry the escape-queue crossbar connection
// serves and its index, or (-1, -1) when it has nothing to do (or the
// switch does not split buffers). Normally this is the escape head —
// the first packet stored past the adaptive region. §4.4's in-order
// pointer redirects the connection when a deterministic packet is
// still waiting in the adaptive region ahead of the escape head: that
// packet "must be forwarded before any other packet stored in the
// escape queue", so the connection serves it instead. Redirecting
// (rather than stalling) keeps the escape network's progress guarantee
// intact — a stalled escape connection would reintroduce the circular
// waits the escape queues exist to break.
func (b *vlBuffer) escapeService() (int, int32) {
	if b.escIdx != escCacheDirty {
		return b.escIdx, b.escID
	}
	b.escIdx, b.escID = b.escapeWalk()
	return b.escIdx, b.escID
}

// escapeWalk recomputes the escape-service point from the FIFO.
func (b *vlBuffer) escapeWalk() (int, int32) {
	if !b.adaptiveQueues {
		return -1, -1
	}
	offset := 0
	firstDet := -1
	adCap := b.split.CAdaptiveCap()
	credits, flags := b.slab.credits, b.slab.flags
	for i, id := range b.ids {
		if offset >= adCap {
			// id is the escape head.
			if firstDet >= 0 {
				return firstDet, b.ids[firstDet]
			}
			return i, id
		}
		if firstDet < 0 && flags[id]&entryPktAdaptive == 0 {
			firstDet = i
		}
		offset += int(credits[id])
	}
	return -1, -1
}

// removeAt dequeues the entry at index i (0 = buffer head; the escape
// head may be interior — RAM-based VL buffers allow that, §4.4).
func (b *vlBuffer) removeAt(i int) int32 {
	id := b.ids[i]
	b.ids = append(b.ids[:i], b.ids[i+1:]...)
	b.occupied -= int(b.slab.credits[id])
	b.escIdx = escCacheDirty
	return id
}

// len returns the number of buffered packets.
func (b *vlBuffer) len() int { return len(b.ids) }
