package fabric

import (
	"testing"
	"unsafe"

	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// fifoChunks walks a queue's chunks from head to tail.
func fifoChunks(q *pktFIFO) []*pktChunk {
	var cs []*pktChunk
	for c := q.head; c != nil; c = c.next {
		cs = append(cs, c)
	}
	return cs
}

// checkFIFO compares q with the reference slice and checks the chunk
// bookkeeping: the live slots hold exactly ref in order, an empty
// queue keeps one chunk, a non-empty one spans no more chunks than its
// length needs plus one, and every chunk ever seen is still either in
// the queue or in the pool.
func checkFIFO(t *testing.T, step int, q *pktFIFO, ref []srcEntry, seen map[*pktChunk]bool) {
	t.Helper()
	if q.len() != len(ref) {
		t.Fatalf("step %d: len %d, want %d", step, q.len(), len(ref))
	}
	if len(ref) > 0 && q.peek() != ref[0] {
		t.Fatalf("step %d: head %#x, want %#x", step, q.peek(), ref[0])
	}
	cs := fifoChunks(q)
	if len(cs) > 0 && cs[len(cs)-1] != q.tail {
		t.Fatalf("step %d: tail is not the last chunk reachable from head", step)
	}
	if len(ref) == 0 && len(cs) > 0 && (len(cs) != 1 || q.hi != 0 || q.ti != 0) {
		t.Fatalf("step %d: empty queue spans %d chunks at hi %d, ti %d; want one chunk at slot 0", step, len(cs), q.hi, q.ti)
	}
	if max := len(ref)/pktChunkSlots + 2; len(cs) > max {
		t.Fatalf("step %d: %d entries span %d chunks, want at most %d", step, len(ref), len(cs), max)
	}
	i := 0
	for ci, c := range cs {
		seen[c] = true
		for s, e := range c.slots {
			live := (ci > 0 || s >= q.hi) && (ci < len(cs)-1 || s < q.ti)
			switch {
			case live && (i >= len(ref) || e != ref[i]):
				t.Fatalf("step %d: chunk %d slot %d holds %#x, want element %d of the reference", step, ci, s, e, i)
			case live:
				i++
			}
		}
	}
	if i != len(ref) {
		t.Fatalf("step %d: chunks hold %d entries, want %d", step, i, len(ref))
	}
	free := 0
	for c := q.pool.free; c != nil; c = c.next {
		seen[c] = true
		free++
	}
	if len(seen) != len(cs)+free {
		t.Fatalf("step %d: %d chunks seen, %d queued + %d pooled: a chunk leaked", step, len(seen), len(cs), free)
	}
}

// TestSrcEntryLayout pins the memory budget of a waiting packet: an
// 8-byte entry, and chunks of exactly 2 KiB, a Go size class. It also
// checks that the tag byte round-trips an ID and every DLID offset a
// host can own, and that no fresh entry reads as prebuilt or requeued.
func TestSrcEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(srcEntry(0)); got != 8 {
		t.Errorf("srcEntry is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(pktChunk{}); got != 2048 {
		t.Errorf("pktChunk is %d bytes, want 2048", got)
	}
	if got := unsafe.Offsetof(pktChunk{}.next); got != 0 {
		t.Errorf("pktChunk.next at offset %d, want 0 (the chunk's only pointer leads)", got)
	}
	const id = entIDMask - 5
	for path := 0; path < 1<<ib.MaxLMC; path++ {
		e := freshEntry(id, path)
		if e.id() != id || e.path() != path || e&entPrebuilt != 0 || e&entRequeued == entRequeued {
			t.Fatalf("freshEntry(%#x, %d) = %#x: id %#x, path %d, prebuilt %v", uint64(id), path, e, e.id(), e.path(), e&entPrebuilt != 0)
		}
	}
}

// TestPktFIFOMatchesSlice runs random push/pop bursts against a plain
// slice. Bursts are long enough to cross chunk boundaries in both
// directions, and one burst kind pushes up to the tail chunk's end and
// then drains everything, so the queue empties exactly at a chunk
// boundary; the test fails if a run never covered both events.
func TestPktFIFOMatchesSlice(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		q := pktFIFO{pool: &chunkPool{}}
		var ref []srcEntry
		seen := map[*pktChunk]bool{}
		next := 0
		push := func() {
			next++
			e := freshEntry(uint64(next), next%128)
			if next%3 == 0 {
				e = srcEntry(next) | entRequeued
			}
			q.push(e)
			ref = append(ref, e)
		}
		pop := func(step int) {
			got := q.pop()
			if got != ref[0] {
				t.Fatalf("seed %d step %d: pop %#x, want %#x", seed, step, got, ref[0])
			}
			ref = ref[1:]
		}
		crossed, boundaryDrains := 0, 0
		for step := 0; step < 300; step++ {
			chunksBefore := len(fifoChunks(&q))
			switch rng.Intn(4) {
			case 0, 1: // push a burst of up to two chunks
				for k := rng.Intn(2 * pktChunkSlots); k > 0; k-- {
					push()
				}
			case 2: // pop a burst of up to two chunks
				for k := rng.Intn(2 * pktChunkSlots); k > 0 && len(ref) > 0; k-- {
					pop(step)
				}
			case 3: // fill the tail chunk to its end, then drain to empty
				if q.tail != nil {
					for k := pktChunkSlots - q.ti; k > 0; k-- {
						push()
					}
					if q.ti == pktChunkSlots && len(ref) > 0 {
						for len(ref) > 0 {
							pop(step)
						}
						boundaryDrains++
					}
				}
			}
			if len(fifoChunks(&q)) != chunksBefore {
				crossed++
			}
			checkFIFO(t, step, &q, ref, seen)
		}
		if crossed == 0 || boundaryDrains == 0 {
			t.Fatalf("seed %d: %d chunk-count changes, %d drains at a chunk boundary; want both > 0", seed, crossed, boundaryDrains)
		}
	}
}

// TestPktFIFOEmptyKeepsItsChunk: a queue that drains to empty keeps
// its one chunk and reuses it from slot 0, so a host moving between
// zero and one queued entry never touches the pool; chunks a drained
// backlog released go to the next queue that grows.
func TestPktFIFOEmptyKeepsItsChunk(t *testing.T) {
	pool := &chunkPool{}
	a, b := pktFIFO{pool: pool}, pktFIFO{pool: pool}
	p := freshEntry(1, 0)
	a.push(p)
	first := a.head
	for i := 0; i < 3*pktChunkSlots; i++ {
		a.pop()
		a.push(p)
		if a.head != first || a.tail != first {
			t.Fatalf("round %d: a one-packet queue changed chunks", i)
		}
	}
	if pool.free != nil {
		t.Fatal("a one-packet queue returned a chunk to the pool")
	}
	for i := 0; i < 3*pktChunkSlots; i++ {
		a.push(p)
	}
	grown := fifoChunks(&a)
	for a.len() > 0 {
		a.pop()
	}
	if a.head != a.tail || a.hi != 0 || a.ti != 0 {
		t.Fatalf("drained queue: head==tail %v, hi %d, ti %d; want one chunk at slot 0", a.head == a.tail, a.hi, a.ti)
	}
	for i := 0; i < 3*pktChunkSlots; i++ {
		b.push(p)
	}
	reused := map[*pktChunk]bool{}
	for _, c := range grown {
		reused[c] = true
	}
	for _, c := range fifoChunks(&b) {
		if !reused[c] {
			t.Fatal("a growing queue allocated a chunk while the pool held released ones")
		}
	}
}
