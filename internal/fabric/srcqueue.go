package fabric

import (
	"fmt"

	"ibasim/internal/ib"
)

// Source queues are unbounded, so past saturation nearly every packet
// a run generates waits in one until the run ends. A generated packet
// therefore waits as a coded entry, most often of a byte or two, and
// becomes an *ib.Packet only when it reaches the head of its queue
// (see Host.loadHead): the 64-byte packet is built for the one packet
// per host that can move next, not for the backlog. What the entry
// leaves out (generation time, destination, size and adaptive bit) is
// a pure function of the host's traffic stream, which the host replays
// as its entries reach the head (see Stream).
//
// An entry is coded as a uvarint v. A fresh entry codes
// v = gap<<1 | hasPath: gap is its packet ID less the ID of the
// previous fresh entry pushed to the same queue, and hasPath says that
// one byte holding its DLID offset follows (source multipath runs
// only, and only for a nonzero offset). IDs come from the network's
// growing counter, so gap is at least 1 and v at least 2. gap averages
// about the host count, and an entry takes one byte while gap is under
// 64 and two while it is under 8,192. The two values left mark a
// packet that already exists and waits in the host's prebuilt FIFO: 0
// an entPrebuilt entry, 1 an entRequeued one. They carry no ID.
//
// The bytes live in a linked list of fixed-size chunks: it holds
// exactly the queued entries plus at most two partly filled chunks,
// and never copies, where a slice that grows by doubling holds up to
// twice the standing depth and copies the whole backlog on each growth
// step. An entry may span two chunks.

// srcEntry is one decoded queue entry: a packet ID in the low 56 bits
// and a tag in the top byte. A fresh entry (Host.Generate) has the top
// bit clear, and its tag is the offset of its DLID from the
// destination's base LID under source multipath (0 otherwise). Both
// were taken at generation, on the network's counter and RNG, so they
// do not depend on when the packet leaves. entPrebuilt and entRequeued
// stand for a packet that already exists (a test's Host.Inject or a
// retry); the packet waits in the host's prebuilt FIFO.
type srcEntry uint64

const (
	entTagShift = 56
	entIDMask   = 1<<entTagShift - 1

	// entPrebuilt is the entry of a packet that waits in Host.prebuilt.
	entPrebuilt srcEntry = 0x80 << entTagShift
	// entRequeued is the entry of a prebuilt retry, which keeps its
	// SeqNo; it includes the entPrebuilt bit, so no fresh entry matches
	// it.
	entRequeued srcEntry = 0xC0 << entTagShift
)

// freshEntry returns the entry of a generated packet. A host owns at
// most 2^ib.MaxLMC LIDs, so path fits in the seven tag bits below the
// prebuilt bit and in the one byte its coding gives it
// (Config.Validate bounds SourceMultipath to match).
func freshEntry(id uint64, path int) srcEntry {
	return srcEntry(id&entIDMask) | srcEntry(path)<<entTagShift
}

// id returns the packet ID the entry holds.
func (e srcEntry) id() uint64 { return uint64(e & entIDMask) }

// path returns a fresh entry's DLID offset.
func (e srcEntry) path() int { return int(e >> entTagShift) }

// pktChunkBytes is the number of entry bytes in one source-queue
// chunk. With the next link a chunk is 2 KiB, a Go size class, so the
// allocator wastes nothing on it.
const pktChunkBytes = 2040

// pktChunk is one link of a source queue. next comes first: it is the
// chunk's only pointer, so the collector scans one word per chunk.
type pktChunk struct {
	next *pktChunk
	b    [pktChunkBytes]byte
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

// put takes back a chunk no queue reads any more. Its stale bytes hold
// no pointers, so they pin nothing.
func (p *chunkPool) put(c *pktChunk) {
	c.next = p.free
	p.free = c
}

// pktFIFO is a source queue of coded entries: bytes head.b[hi:]
// through tail.b[:ti], oldest first. An emptied queue keeps its one
// chunk, so a host that moves between zero and one queued packet never
// goes to the pool.
type pktFIFO struct {
	pool       *chunkPool
	head, tail *pktChunk
	hi, ti     int // head read index, tail write index
	n          int // queued entries

	// lastIn and lastOut are the IDs of the last fresh entry pushed
	// and popped: the bases the gaps are coded against and decoded
	// from.
	lastIn, lastOut uint64
}

// len returns the number of queued entries.
func (q *pktFIFO) len() int { return q.n }

// push appends e at the tail. A fresh entry's ID must exceed that of
// every fresh entry pushed before it.
func (q *pktFIFO) push(e srcEntry) {
	if q.tail == nil {
		q.head = q.pool.get()
		q.tail = q.head
	}
	q.n++
	switch e {
	case entPrebuilt:
		q.putByte(0)
		return
	case entRequeued:
		q.putByte(1)
		return
	}
	id, path := e.id(), e.path()
	if id <= q.lastIn {
		panic(fmt.Sprintf("fabric: source-queue entry pkt#%d follows pkt#%d", id, q.lastIn))
	}
	v := (id - q.lastIn) << 1
	q.lastIn = id
	if path != 0 {
		v |= 1
	}
	for ; v >= 0x80; v >>= 7 {
		q.putByte(byte(v) | 0x80)
	}
	q.putByte(byte(v))
	if path != 0 {
		q.putByte(byte(path))
	}
}

// pop removes and decodes the head entry; the caller must have checked
// len() > 0. A chunk read to its end goes back to the pool when the
// next read leaves it; a queue that empties rewinds its last chunk.
func (q *pktFIFO) pop() srcEntry {
	var v uint64
	for s := uint(0); ; s += 7 {
		b := q.getByte()
		v |= uint64(b&0x7f) << s
		if b < 0x80 {
			break
		}
	}
	var e srcEntry
	switch v {
	case 0:
		e = entPrebuilt
	case 1:
		e = entRequeued
	default:
		q.lastOut += v >> 1
		path := 0
		if v&1 != 0 {
			path = int(q.getByte())
		}
		e = freshEntry(q.lastOut, path)
	}
	q.n--
	if q.n == 0 {
		// Every byte is read: the read point is the tail's write point.
		q.hi, q.ti = 0, 0
	}
	return e
}

// putByte appends one byte, linking a new tail chunk when the last is
// full.
func (q *pktFIFO) putByte(b byte) {
	if q.ti == pktChunkBytes {
		c := q.pool.get()
		q.tail.next = c
		q.tail = c
		q.ti = 0
	}
	q.tail.b[q.ti] = b
	q.ti++
}

// getByte reads the next byte, releasing the head chunk when its last
// byte was read before.
func (q *pktFIFO) getByte() byte {
	if q.hi == pktChunkBytes {
		c := q.head
		q.head = c.next
		q.hi = 0
		q.pool.put(c)
	}
	b := q.head.b[q.hi]
	q.hi++
	return b
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
