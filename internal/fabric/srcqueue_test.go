package fabric

import (
	"bytes"
	"encoding/binary"
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

// fifoBytes returns the queue's live bytes, head.b[hi:] through
// tail.b[:ti].
func fifoBytes(q *pktFIFO) []byte {
	var out []byte
	for c := q.head; c != nil; c = c.next {
		lo, hi := 0, pktChunkBytes
		if c == q.head {
			lo = q.hi
		}
		if c == q.tail {
			hi = q.ti
		}
		out = append(out, c.b[lo:hi]...)
	}
	return out
}

// encodeEntries is the reference coding of entries, written against
// encoding/binary rather than the queue's own loop: markers as the
// uvarints 0 and 1, a fresh entry as uvarint(gap<<1 | hasPath) from
// base, then its DLID offset byte when it is nonzero.
func encodeEntries(entries []srcEntry, base uint64) []byte {
	var out []byte
	for _, e := range entries {
		switch e {
		case entPrebuilt:
			out = binary.AppendUvarint(out, 0)
		case entRequeued:
			out = binary.AppendUvarint(out, 1)
		default:
			v := (e.id() - base) << 1
			base = e.id()
			if e.path() != 0 {
				v |= 1
			}
			out = binary.AppendUvarint(out, v)
			if e.path() != 0 {
				out = append(out, byte(e.path()))
			}
		}
	}
	return out
}

// checkFIFO compares q with the reference slice and checks the chunk
// bookkeeping: the live bytes are exactly ref's reference coding from
// the last popped ID, an empty queue keeps one chunk at byte 0, a
// non-empty one spans no more chunks than its bytes need plus two, and
// every chunk ever seen is still either in the queue or in the pool.
func checkFIFO(t *testing.T, step int, q *pktFIFO, ref []srcEntry, seen map[*pktChunk]bool) {
	t.Helper()
	if q.len() != len(ref) {
		t.Fatalf("step %d: len %d, want %d", step, q.len(), len(ref))
	}
	cs := fifoChunks(q)
	if len(cs) > 0 && cs[len(cs)-1] != q.tail {
		t.Fatalf("step %d: tail is not the last chunk reachable from head", step)
	}
	if len(ref) == 0 && len(cs) > 0 && (len(cs) != 1 || q.hi != 0 || q.ti != 0) {
		t.Fatalf("step %d: empty queue spans %d chunks at hi %d, ti %d; want one chunk at byte 0", step, len(cs), q.hi, q.ti)
	}
	live := fifoBytes(q)
	if want := encodeEntries(ref, q.lastOut); !bytes.Equal(live, want) {
		t.Fatalf("step %d: queue holds % x, want % x", step, live, want)
	}
	if max := len(live)/pktChunkBytes + 2; len(cs) > max {
		t.Fatalf("step %d: %d bytes span %d chunks, want at most %d", step, len(live), len(cs), max)
	}
	free := 0
	for c := q.pool.free; c != nil; c = c.next {
		seen[c] = true
		free++
	}
	for _, c := range cs {
		seen[c] = true
	}
	if len(seen) != len(cs)+free {
		t.Fatalf("step %d: %d chunks seen, %d queued + %d pooled: a chunk leaked", step, len(seen), len(cs), free)
	}
}

// TestSrcEntryLayout pins the memory budget of a waiting packet: the
// coded size of an entry at the ends of each size class, markers of
// one byte with no ID, and chunks of exactly 2 KiB, a Go size class.
// It also checks that the decoded word round-trips an ID and every
// DLID offset a host can own, and that no fresh entry reads as
// prebuilt or requeued.
func TestSrcEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(pktChunk{}); got != 2048 {
		t.Errorf("pktChunk is %d bytes, want 2048", got)
	}
	if got := unsafe.Offsetof(pktChunk{}.next); got != 0 {
		t.Errorf("pktChunk.next at offset %d, want 0 (the chunk's only pointer leads)", got)
	}
	const maxGap = entIDMask // the largest gap an ID can take
	for _, c := range []struct {
		name  string
		gap   uint64 // 0 for a marker
		e     srcEntry
		bytes int
	}{
		{"prebuilt", 0, entPrebuilt, 1},
		{"requeued", 0, entRequeued, 1},
		{"gap 1", 1, 0, 1},
		{"gap 63", 63, 0, 1},
		{"gap 64", 64, 0, 2},
		{"gap 8191", 8191, 0, 2},
		{"gap 8192", 8192, 0, 3},
		{"gap 1, offset 1", 1, 1 << entTagShift, 2},
		{"gap 63, offset 127", 63, 127 << entTagShift, 2},
		{"largest gap", maxGap, 0, 9},
		{"largest gap, offset 127", maxGap, 127 << entTagShift, 10},
	} {
		q := pktFIFO{pool: &chunkPool{}}
		e := c.e
		if c.gap > 0 {
			// The entry takes the largest ID, gap after a base entry
			// pushed and popped first: an ID keeps 56 bits, so only a
			// queue's first entry can take the largest gap.
			const id = entIDMask
			if base := id - c.gap; base > 0 {
				q.push(freshEntry(base, 0))
				q.pop()
			}
			e = freshEntry(id, c.e.path())
		}
		q.push(e)
		if q.ti != c.bytes {
			t.Errorf("%s: entry takes %d bytes, want %d", c.name, q.ti, c.bytes)
		}
		if got := q.pop(); got != e {
			t.Errorf("%s: pushed %#x, popped %#x", c.name, e, got)
		}
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
// slice. Entries mix one- to three-byte fresh entries, DLID offsets
// and markers; bursts are long enough to cross chunk boundaries in both
// directions, and one burst kind pushes one-byte entries up to the
// tail chunk's end and then drains everything, so the queue empties
// exactly at a chunk boundary. The test fails if a run never crossed a
// boundary, never split an entry across two chunks or never drained
// at a boundary.
func TestPktFIFOMatchesSlice(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		q := pktFIFO{pool: &chunkPool{}}
		var ref []srcEntry
		seen := map[*pktChunk]bool{}
		var id uint64
		split := 0
		push := func(e srcEntry) {
			tail, ti := q.tail, q.ti
			q.push(e)
			if tail != nil && q.tail != tail && ti < pktChunkBytes {
				split++ // the entry began in the old tail chunk
			}
			ref = append(ref, e)
		}
		pushRandom := func() {
			switch k := rng.Intn(8); {
			case k == 0:
				push(entPrebuilt)
			case k == 1:
				push(entRequeued)
			default:
				id += 1 + uint64(rng.Intn(20_000))
				path := 0
				if k == 2 {
					path = rng.Intn(128)
				}
				push(freshEntry(id, path))
			}
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
			case 0, 1: // push a burst of up to about two chunks' bytes
				for k := rng.Intn(pktChunkBytes); k > 0; k-- {
					pushRandom()
				}
			case 2: // pop a burst of up to about two chunks' bytes
				for k := rng.Intn(pktChunkBytes); k > 0 && len(ref) > 0; k-- {
					pop(step)
				}
			case 3: // fill the tail chunk to its end, then drain to empty
				if q.tail != nil {
					for q.ti < pktChunkBytes {
						id++
						push(freshEntry(id, 0)) // one byte
					}
					for len(ref) > 0 {
						pop(step)
					}
					boundaryDrains++
				}
			}
			if len(fifoChunks(&q)) != chunksBefore {
				crossed++
			}
			checkFIFO(t, step, &q, ref, seen)
		}
		if crossed == 0 || split == 0 || boundaryDrains == 0 {
			t.Fatalf("seed %d: %d chunk-count changes, %d entries split across chunks, %d drains at a chunk boundary; want all > 0",
				seed, crossed, split, boundaryDrains)
		}
	}
}

// FuzzPktFIFO drives a source queue with a byte program and checks
// every pop, and the coded bytes and chunk bookkeeping at intervals,
// against a slice. Each opcode takes the next byte as its argument p:
//
//	0 fresh entry, gap of up to p%57 random bits, random offset
//	1 fresh entry, gap 1+p%64, no offset
//	2 fresh entry, DLID offset p%128, small random gap
//	3 the largest gap the 56-bit ID space still allows
//	4 prebuilt marker, 5 requeued marker
//	6 pop up to p entries
//	7 burst of 8p one-byte entries (255 fill a chunk), or drain if p is 0
//
// A fresh entry whose ID space is used up is pushed as a marker, and a
// burst stops at eight chunks' worth of entries, so an input runs in
// milliseconds.
func FuzzPktFIFO(f *testing.F) {
	everyOffset := []byte{}
	for p := 0; p < 128; p++ {
		everyOffset = append(everyOffset, 2, byte(p))
	}
	everyOffset = append(everyOffset, 6, 255)
	f.Add(uint64(1), everyOffset)
	f.Add(uint64(2), []byte{3, 0, 0, 56, 6, 1, 6, 1, 3, 0, 4, 0, 6, 9})             // the largest gap first, then a used-up space
	f.Add(uint64(3), []byte{7, 255, 0, 56, 2, 5, 7, 255, 6, 200, 7, 0, 7, 1, 7, 0}) // bursts across chunk boundaries
	f.Add(uint64(4), []byte{4, 0, 1, 3, 5, 0, 2, 127, 4, 0, 6, 2, 5, 0, 0, 30, 7, 0})
	f.Add(uint64(5), []byte{7, 254, 0, 56, 0, 56, 0, 56, 6, 255, 7, 255, 0, 40, 7, 0})
	f.Fuzz(func(t *testing.T, seed uint64, program []byte) {
		if len(program) > 1<<12 {
			program = program[:1<<12]
		}
		rng := sim.NewRNG(seed)
		q := pktFIFO{pool: &chunkPool{}}
		var ref []srcEntry
		seen := map[*pktChunk]bool{}
		var id uint64
		fresh := func(gap uint64, path int) {
			if room := entIDMask - id; room == 0 {
				q.push(entPrebuilt)
				ref = append(ref, entPrebuilt)
				return
			} else if gap > room {
				gap = room
			}
			id += gap
			e := freshEntry(id, path)
			q.push(e)
			ref = append(ref, e)
		}
		pop := func(i int) {
			if got := q.pop(); got != ref[0] {
				t.Fatalf("op %d: pop %#x, want %#x", i, got, ref[0])
			}
			ref = ref[1:]
		}
		for i := 0; i+1 < len(program); i += 2 {
			p := program[i+1]
			switch program[i] % 8 {
			case 0:
				gap := rng.Uint64() >> (64 - uint(p%57)) // 0 when p%57 is 0
				fresh(max(gap, 1), rng.Intn(128)*rng.Intn(2))
			case 1:
				fresh(1+uint64(p%64), 0)
			case 2:
				fresh(1+uint64(rng.Intn(256)), int(p%128))
			case 3:
				fresh(entIDMask, 0)
			case 4:
				q.push(entPrebuilt)
				ref = append(ref, entPrebuilt)
			case 5:
				q.push(entRequeued)
				ref = append(ref, entRequeued)
			case 6:
				for k := int(p); k > 0 && len(ref) > 0; k-- {
					pop(i)
				}
			case 7:
				if p == 0 {
					for len(ref) > 0 {
						pop(i)
					}
				}
				for k := 8 * int(p); k > 0 && len(ref) < 8*pktChunkBytes; k-- {
					fresh(1, 0)
				}
			}
			if q.len() != len(ref) {
				t.Fatalf("op %d: len %d, want %d", i, q.len(), len(ref))
			}
			if i%64 == 0 {
				checkFIFO(t, i, &q, ref, seen)
			}
		}
		checkFIFO(t, len(program), &q, ref, seen)
		for len(ref) > 0 {
			pop(len(program))
		}
		checkFIFO(t, len(program), &q, ref, seen)
	})
}

// TestPktFIFOEmptyKeepsItsChunk: a queue that drains to empty keeps
// its one chunk and reuses it from byte 0, so a host moving between
// zero and one queued entry never touches the pool; chunks a drained
// backlog released go to the next queue that grows.
func TestPktFIFOEmptyKeepsItsChunk(t *testing.T) {
	pool := &chunkPool{}
	a, b := pktFIFO{pool: pool}, pktFIFO{pool: pool}
	var id uint64
	next := func() srcEntry {
		id++
		return freshEntry(id, 0)
	}
	a.push(next())
	first := a.head
	for i := 0; i < 3*pktChunkBytes; i++ {
		a.pop()
		a.push(next())
		if a.head != first || a.tail != first {
			t.Fatalf("round %d: a one-packet queue changed chunks", i)
		}
	}
	if pool.free != nil {
		t.Fatal("a one-packet queue returned a chunk to the pool")
	}
	for i := 0; i < 3*pktChunkBytes; i++ {
		a.push(next())
	}
	grown := fifoChunks(&a)
	for a.len() > 0 {
		a.pop()
	}
	if a.head != a.tail || a.hi != 0 || a.ti != 0 {
		t.Fatalf("drained queue: head==tail %v, hi %d, ti %d; want one chunk at byte 0", a.head == a.tail, a.hi, a.ti)
	}
	released := map[*pktChunk]bool{}
	for _, c := range grown {
		if c != a.head {
			released[c] = true
		}
	}
	for i := 0; i < 3*pktChunkBytes; i++ {
		b.push(next())
	}
	for _, c := range fifoChunks(&b) {
		delete(released, c)
	}
	if len(released) != 0 || pool.free != nil {
		t.Fatalf("a growing queue left %d released chunks unused", len(released))
	}
}
