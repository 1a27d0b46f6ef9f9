package sim

import "testing"

// FuzzEventQueueOrdering fuzzes the scheduler-equivalence property:
// any push/pop program over any wheel geometry must produce the exact
// heap dispatch sequence through the engine's two calls, popAtMost and
// hasEventAt, and every push less than a span ahead of the clock's
// bucket must land on the wheel while the cursor is on that bucket
// (see driveQueues). The seed corpus pins the known-delicate inputs —
// equal-timestamp FIFO runs, bucket-boundary timestamps, horizon-exact
// pushes, far-future overflow traffic, out-of-order bucket fills, a
// cursor parked ahead of the clock and the immediate merge — and the
// fuzzer mutates from there. scripts/ci.sh runs a short smoke pass.
func FuzzEventQueueOrdering(f *testing.F) {
	// Opcode key (see driveQueues): 0 near, 1 equal-timestamp, 2
	// bucket boundary, 3 horizon-exact, 4 far future, 5 spread,
	// 6 pop, 7 drain burst, 8 pop up to a Run horizon, 9 pop at the
	// clock when hasEventAt says so.
	equalFIFO := []byte{1, 0, 1, 0, 1, 0, 1, 0, 6, 0, 6, 0, 1, 0, 1, 0, 7, 8}
	boundaries := []byte{2, 0, 2, 1, 2, 2, 2, 3, 6, 0, 2, 0, 2, 1, 7, 8}
	horizonExact := []byte{3, 0, 0, 5, 3, 0, 6, 0, 6, 0, 3, 0, 7, 8}
	farFuture := []byte{4, 9, 0, 3, 4, 200, 6, 0, 4, 1, 7, 255, 0, 1, 7, 255}
	drainRefill := []byte{0, 10, 0, 20, 7, 255, 0, 3, 1, 0, 7, 255, 4, 50, 7, 255}
	// A horizon short of the next wheel event parks the cursor ahead
	// of the clock; a push at the clock then goes to the overflow, and
	// the merge must still find and pop it there.
	parkedMerge := []byte{0, 200, 8, 10, 1, 0, 0, 5, 9, 0, 9, 0, 8, 255, 7, 255}
	// Events at the clock popped through the merge, between pops.
	mergeFIFO := []byte{1, 0, 1, 0, 6, 0, 1, 0, 9, 0, 9, 0, 4, 3, 9, 0, 8, 0, 7, 8}
	// A Run horizon exactly at the overflow minimum, with the wheel
	// empty, pops it (the fuzzed span is 32 ns for the seed geometries
	// 3/1 and 12/2, 128 ns for 6/0).
	overflowAtHorizon := []byte{3, 0, 8, 32, 8, 128, 1, 0, 9, 0, 7, 255}
	for _, seed := range [][]byte{equalFIFO, boundaries, horizonExact, farFuture, drainRefill, parkedMerge, mergeFIFO, overflowAtHorizon} {
		f.Add(seed, uint8(3), uint8(1))
		f.Add(seed, uint8(6), uint8(0))
		f.Add(seed, uint8(12), uint8(2))
	}
	// Out-of-order fills of the bucket after the cursor's, which gets
	// the counting sort when the cursor enters it. At width 8 ns,
	// scatter8 lands 32 pushes on all 8 offsets of [8, 16), four each,
	// so equal timestamps must keep their push order. scatter64 pushes
	// 40 distinct timestamps and 8 repeats into [64, 128): one bucket
	// at width 64 ns, eight at width 8 ns.
	scatter8 := []byte{0, 0}
	for k := 0; k < 32; k++ {
		scatter8 = append(scatter8, 0, byte(8+k*5%8))
	}
	scatter64 := []byte{0, 0}
	for k := 0; k < 48; k++ {
		scatter64 = append(scatter64, 0, byte(64+k%40*23%64))
	}
	scatter8 = append(scatter8, 7, 255)
	scatter64 = append(scatter64, 7, 255)
	f.Add(scatter8, uint8(3), uint8(3))
	f.Add(scatter64, uint8(3), uint8(3))
	f.Add(scatter64, uint8(3), uint8(6))
	f.Fuzz(func(t *testing.T, program []byte, slotBits, widthBits uint8) {
		sb := uint(slotBits%10) + 1 // 2..1024 buckets
		wb := uint(widthBits % 7)   // width 1..64 ns
		if len(program) > 1<<16 {
			program = program[:1<<16]
		}
		if err := driveQueues(program, sb, wb); err != nil {
			t.Fatalf("geometry %d/%d: %v", sb, wb, err)
		}
	})
}
