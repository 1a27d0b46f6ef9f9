package fabric

import "ibasim/internal/ib"

// Source queues are unbounded, so past saturation nearly every packet
// a run generates waits in one until the run ends. A generated packet
// therefore waits as one 8-byte word, its srcEntry, and becomes an
// *ib.Packet only when it reaches the head of its queue (see
// Host.loadHead): the 64-byte packet is built for the one packet per
// host that can move next, not for the backlog. What the word leaves
// out (generation time, destination, size and adaptive bit) is a pure
// function of the host's traffic stream, which the host replays as its
// entries reach the head (see Stream).
//
// The entries live in a linked list of fixed-size chunks: it holds
// exactly one entry per queued packet plus at most two partly filled
// chunks, and never copies, where a slice that grows by doubling holds
// up to twice the standing depth and copies the whole backlog on each
// growth step.

// srcEntry is one waiting packet: its ID in the low 56 bits and a tag
// in the top byte. A fresh entry (Host.Generate) has the top bit
// clear, and its tag is the offset of its DLID from the destination's
// base LID under source multipath (0 otherwise). Both were taken at
// generation, on the network's counter and RNG, so they do not depend
// on when the packet leaves. An entry tagged entPrebuilt stands for a
// packet that already exists (a retry or a test's Host.Inject); the
// packet waits in the host's prebuilt FIFO.
type srcEntry uint64

const (
	entTagShift = 56
	entIDMask   = 1<<entTagShift - 1

	// entPrebuilt tags an entry whose packet waits in Host.prebuilt.
	entPrebuilt srcEntry = 0x80 << entTagShift
	// entRequeued tags a prebuilt retry, which keeps its SeqNo; it
	// includes the entPrebuilt bit, so no fresh entry matches it.
	entRequeued srcEntry = 0xC0 << entTagShift
)

// freshEntry returns the entry of a generated packet. A host owns at
// most 2^ib.MaxLMC LIDs, so path fits in the seven tag bits below the
// prebuilt bit (Config.Validate bounds SourceMultipath to match).
func freshEntry(id uint64, path int) srcEntry {
	return srcEntry(id&entIDMask) | srcEntry(path)<<entTagShift
}

// id returns the packet ID the entry holds.
func (e srcEntry) id() uint64 { return uint64(e & entIDMask) }

// path returns a fresh entry's DLID offset.
func (e srcEntry) path() int { return int(e >> entTagShift) }

// pktChunkSlots is the number of entries in one source-queue chunk.
// With the next link a chunk is 2 KiB, a Go size class, so the
// allocator wastes nothing on it.
const pktChunkSlots = 255

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
func (q *pktFIFO) peek() srcEntry { return q.head.slots[q.hi] }

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
// the source queue, less the one at the head (Host.head). It is
// short-lived in practice; a backing array that fills while its front
// is consumed is compacted rather than grown, so its size follows the
// live depth.
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
