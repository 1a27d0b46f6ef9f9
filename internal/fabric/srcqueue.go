package fabric

import (
	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// Source queues are unbounded, so past saturation nearly every packet
// a run generates waits in one until the run ends. A generated packet
// therefore waits as a 24-byte, pointer-free srcEntry and becomes an
// *ib.Packet only when it leaves the queue (see Host.take): the 64-byte
// packet is built for the packets that move, not for the backlog.
//
// The entries live in a linked list of fixed-size chunks: it holds
// exactly one entry per queued packet plus at most two partly filled
// chunks, and never copies, where a slice that grows by doubling holds
// up to twice the standing depth and copies the whole backlog on each
// growth step.

// srcEntry is one waiting packet. A fresh entry carries everything the
// packet will be built from; its ID and DLID were taken at generation,
// so they do not depend on when it leaves. An entry with entPrebuilt
// stands for a packet that already exists (a retry or a test's
// Host.Inject); the packet waits in the host's prebuilt FIFO and the
// entry keeps only its ID and queueing time.
type srcEntry struct {
	id    uint64   // packet ID
	at    sim.Time // when the packet entered the queue (QueuedAt)
	dst   uint16   // destination host; NewNetwork bounds the host count
	dlid  ib.LID   // destination LID, drawn at generation
	size  uint16   // bytes; at most one MTU, which NewNetwork bounds
	flags uint8    // entAdaptive, entPrebuilt, entRequeued
}

// srcEntry flags.
const (
	entAdaptive uint8 = 1 << iota // fresh packet: adaptive service
	entPrebuilt                   // the packet waits in Host.prebuilt
	entRequeued                   // prebuilt retry: keeps its SeqNo
)

// pktChunkSlots is the number of entries in one source-queue chunk.
// With the next link a chunk is 2 KiB, a Go size class, so the
// allocator wastes nothing on it.
const pktChunkSlots = 85

// pktChunk is one link of a source queue. next comes first: it is the
// chunk's only pointer, so the collector scans one word per chunk.
type pktChunk struct {
	next  *pktChunk
	slots [pktChunkSlots]srcEntry
}

// chunkPool is a network's freelist of empty chunks, linked through
// next. A host whose backlog drains hands its chunks here and another
// host's growth takes them back; the engine dispatches sequentially,
// so no locking is needed.
type chunkPool struct{ free *pktChunk }

func (p *chunkPool) get() *pktChunk {
	if c := p.free; c != nil {
		p.free = c.next
		c.next = nil
		return c
	}
	return new(pktChunk)
}

// put takes back a chunk no queue reads any more. Its stale entries
// hold no pointers, so they pin nothing.
func (p *chunkPool) put(c *pktChunk) {
	c.next = p.free
	p.free = c
}

// pktFIFO is a host's source queue: entries head.slots[hi:] through
// tail.slots[:ti], oldest first. An emptied queue keeps its one chunk,
// so a host that moves between zero and one queued packet never goes
// to the pool.
type pktFIFO struct {
	pool       *chunkPool
	head, tail *pktChunk
	hi, ti     int // head read index, tail write index
	n          int // queued entries
}

// len returns the number of queued entries.
func (q *pktFIFO) len() int { return q.n }

// peek returns the head entry; the caller must have checked len() > 0.
func (q *pktFIFO) peek() *srcEntry { return &q.head.slots[q.hi] }

// push appends e at the tail.
func (q *pktFIFO) push(e srcEntry) {
	switch {
	case q.tail == nil:
		q.head = q.pool.get()
		q.tail = q.head
	case q.ti == pktChunkSlots:
		c := q.pool.get()
		q.tail.next = c
		q.tail = c
		q.ti = 0
	}
	q.tail.slots[q.ti] = e
	q.ti++
	q.n++
}

// pop removes and returns the head entry; the caller must have checked
// len() > 0. A chunk read to its end goes back to the pool unless it
// is the queue's last one.
func (q *pktFIFO) pop() srcEntry {
	c := q.head
	e := c.slots[q.hi]
	q.hi++
	q.n--
	switch {
	case q.n == 0:
		// head == tail: the tail chunk always holds the newest entry.
		q.hi, q.ti = 0, 0
	case q.hi == pktChunkSlots:
		q.head = c.next
		q.hi = 0
		q.pool.put(c)
	}
	return e
}

// pktQueue is a FIFO of packets that already exist: a host's retries
// and injected packets, in the order their entPrebuilt entries hold in
// the source queue. It is short-lived in practice; a backing array
// that fills while its front is consumed is compacted rather than
// grown, so its size follows the live depth.
type pktQueue struct {
	pkts []*ib.Packet
	head int
}

func (q *pktQueue) push(p *ib.Packet) {
	if q.head > 0 && len(q.pkts) == cap(q.pkts) {
		n := copy(q.pkts, q.pkts[q.head:])
		clear(q.pkts[n:])
		q.pkts, q.head = q.pkts[:n], 0
	}
	q.pkts = append(q.pkts, p)
}

// peek returns the oldest packet; the queue must not be empty.
func (q *pktQueue) peek() *ib.Packet { return q.pkts[q.head] }

// pop removes and returns the oldest packet; the queue must not be
// empty.
func (q *pktQueue) pop() *ib.Packet {
	p := q.pkts[q.head]
	q.pkts[q.head] = nil // release the reference for GC
	q.head++
	if q.head == len(q.pkts) {
		q.pkts, q.head = q.pkts[:0], 0
	}
	return p
}
