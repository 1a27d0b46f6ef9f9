package fabric

import "ibasim/internal/ib"

// Source queues are unbounded, so past saturation nearly every packet
// a run generates waits in one until the run ends. A slice that grows
// by doubling and compacts by copying holds up to twice the standing
// depth in pointers and copies the whole backlog on each growth step;
// a linked list of fixed-size chunks holds exactly one pointer per
// queued packet plus at most two partly filled chunks, and never
// copies.

// pktChunkSlots is the number of packet pointers in one source-queue
// chunk. With the next link a chunk is 2 KiB, a Go size class, so the
// allocator wastes nothing on it.
const pktChunkSlots = 255

// pktChunk is one link of a source queue.
type pktChunk struct {
	slots [pktChunkSlots]*ib.Packet
	next  *pktChunk
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

// put takes back a chunk whose slots are all nil.
func (p *chunkPool) put(c *pktChunk) {
	c.next = p.free
	p.free = c
}

// pktFIFO is a host's source queue: packets head.slots[hi:] through
// tail.slots[:ti], oldest first. An emptied queue keeps its one chunk,
// so a host that moves between zero and one queued packet never goes
// to the pool.
type pktFIFO struct {
	pool       *chunkPool
	head, tail *pktChunk
	hi, ti     int // head read index, tail write index
	n          int // queued packets
}

// len returns the number of queued packets.
func (q *pktFIFO) len() int { return q.n }

// peek returns the head packet; the caller must have checked len() > 0.
func (q *pktFIFO) peek() *ib.Packet { return q.head.slots[q.hi] }

// push appends pkt at the tail.
func (q *pktFIFO) push(pkt *ib.Packet) {
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
	q.tail.slots[q.ti] = pkt
	q.ti++
	q.n++
}

// pop removes and returns the head packet; the caller must have
// checked len() > 0. A chunk read to its end goes back to the pool
// unless it is the queue's last one.
func (q *pktFIFO) pop() *ib.Packet {
	c := q.head
	pkt := c.slots[q.hi]
	c.slots[q.hi] = nil // release the reference for GC
	q.hi++
	q.n--
	switch {
	case q.n == 0:
		// head == tail: the tail chunk always holds the newest packet.
		q.hi, q.ti = 0, 0
	case q.hi == pktChunkSlots:
		q.head = c.next
		q.hi = 0
		q.pool.put(c)
	}
	return pkt
}
