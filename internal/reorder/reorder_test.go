package reorder

import (
	"slices"
	"testing"
	"testing/quick"

	"ibasim/internal/sim"
)

// testHosts bounds the host IDs the tests' flows use.
const testHosts = 5

// deliver hands b the packet with sequence number seq of flow
// src->dst at now and returns the release run it reports, as the
// SeqNos it released in release order: the delivered packet and its
// parked successors, or nil when the packet parks.
func deliver(b *Buffer, src, dst int, seq uint64, now sim.Time) []uint64 {
	n := b.Deliver(src, dst, seq, now)
	if n == 0 {
		return nil
	}
	run := make([]uint64, n)
	for i := range run {
		run[i] = seq + uint64(i)
	}
	return run
}

// seqs returns the SeqNos lo .. hi-1.
func seqs(lo, hi uint64) []uint64 {
	var s []uint64
	for q := lo; q < hi; q++ {
		s = append(s, q)
	}
	return s
}

func TestInOrderPassesThrough(t *testing.T) {
	b := NewBufferForHosts(testHosts)
	for seq := uint64(0); seq < 10; seq++ {
		if out := deliver(b, 0, 1, seq, sim.Time(seq)); !slices.Equal(out, []uint64{seq}) {
			t.Fatalf("seq %d: released %v, want [%d]", seq, out, seq)
		}
	}
	if b.Parked != 0 || b.PassedThru != 10 {
		t.Fatalf("stats: %+v", b)
	}
	if b.ParkedFraction() != 0 {
		t.Fatal("parked fraction nonzero")
	}
}

func TestEarlyPacketParksAndReleases(t *testing.T) {
	b := NewBufferForHosts(testHosts)
	if out := deliver(b, 0, 1, 1, 100); out != nil {
		t.Fatalf("early packet released: %v", out)
	}
	if b.Held() != 1 {
		t.Fatalf("Held = %d", b.Held())
	}
	if out := deliver(b, 0, 1, 0, 150); !slices.Equal(out, []uint64{0, 1}) {
		t.Fatalf("release run = %v, want [0 1]", out)
	}
	if b.Held() != 0 {
		t.Fatalf("Held = %d after release", b.Held())
	}
	if b.ReorderDelay != 50 {
		t.Fatalf("ReorderDelay = %v, want 50", b.ReorderDelay)
	}
	if b.AvgReorderDelay() != 50 {
		t.Fatalf("AvgReorderDelay = %v", b.AvgReorderDelay())
	}
	// The flow holds nothing any more, so it leaves no trace behind.
	if len(b.held) != 0 || b.holding[0] != 0 {
		t.Fatalf("drained flow still held: %v, holding %#x", b.held, b.holding[0])
	}
	if out := deliver(b, 0, 1, 2, 160); !slices.Equal(out, []uint64{2}) {
		t.Fatalf("next in-order packet released %v, want [2]", out)
	}
}

func TestLongInversionRun(t *testing.T) {
	b := NewBufferForHosts(testHosts)
	// Deliver 9..1 first, then 0: everything must release at once, in
	// order.
	for seq := uint64(9); seq >= 1; seq-- {
		if out := deliver(b, 0, 1, seq, 10); out != nil {
			t.Fatalf("seq %d released early: %v", seq, out)
		}
	}
	if b.Held() != 9 {
		t.Fatalf("Held = %d, want 9", b.Held())
	}
	if out := deliver(b, 0, 1, 0, 20); !slices.Equal(out, seqs(0, 10)) {
		t.Fatalf("release run = %v, want %v", out, seqs(0, 10))
	}
	// Peak occupancy is the end-of-timestamp sample: 9 packets were
	// parked at t=10, released at t=20.
	b.Finalize()
	if b.PeakHeld != 9 {
		t.Fatalf("PeakHeld = %d, want 9", b.PeakHeld)
	}
}

// TestGapStopsTheRun: a release run ends at the first SeqNo still
// missing, and the packets parked past the gap wait for it.
func TestGapStopsTheRun(t *testing.T) {
	b := NewBufferForHosts(testHosts)
	for _, seq := range []uint64{1, 2, 4, 5} {
		if out := deliver(b, 0, 1, seq, 10); out != nil {
			t.Fatalf("seq %d released early: %v", seq, out)
		}
	}
	if out := deliver(b, 0, 1, 0, 20); !slices.Equal(out, seqs(0, 3)) {
		t.Fatalf("release run = %v, want %v", out, seqs(0, 3))
	}
	if b.Held() != 2 {
		t.Fatalf("Held = %d after the first run, want 2", b.Held())
	}
	if out := deliver(b, 0, 1, 3, 30); !slices.Equal(out, seqs(3, 6)) {
		t.Fatalf("release run = %v, want %v", out, seqs(3, 6))
	}
	// seq 1, 2 waited 10 ns; 4, 5 waited 20 ns.
	if b.Held() != 0 || b.ReorderDelay != 60 {
		t.Fatalf("Held = %d, ReorderDelay = %v; want 0 and 60", b.Held(), b.ReorderDelay)
	}
}

// TestPeakIsEndOfTimestampSample: parks that resolve within the same
// simulated instant do not count toward the peak — only the occupancy
// left when time moves on does, so the sample is independent of the
// dispatch order of equal-time deliveries.
func TestPeakIsEndOfTimestampSample(t *testing.T) {
	b := NewBufferForHosts(testHosts)
	if out := deliver(b, 0, 1, 1, 10); out != nil { // parked...
		t.Fatalf("seq 1 released early: %v", out)
	}
	if out := deliver(b, 0, 1, 0, 10); !slices.Equal(out, seqs(0, 2)) { // ...and released within t=10
		t.Fatalf("release run = %v, want [0 1]", out)
	}
	if out := deliver(b, 0, 1, 3, 20); out != nil { // parked across the boundary
		t.Fatalf("seq 3 released early: %v", out)
	}
	b.Finalize()
	if b.PeakHeld != 1 {
		t.Fatalf("PeakHeld = %d, want 1 (same-instant park must not count)", b.PeakHeld)
	}
	b.Finalize() // idempotent
	if b.PeakHeld != 1 {
		t.Fatalf("PeakHeld after second Finalize = %d", b.PeakHeld)
	}
}

func TestFlowsAreIndependent(t *testing.T) {
	b := NewBufferForHosts(testHosts)
	if out := deliver(b, 0, 1, 1, 0); out != nil {
		t.Fatalf("flow (0,1) seq 1 released early: %v", out)
	}
	// A different flow's seq 0 is unaffected by the parked packet.
	if out := deliver(b, 2, 1, 0, 0); !slices.Equal(out, []uint64{0}) {
		t.Fatalf("independent flow blocked: %v", out)
	}
	// Reverse direction is a distinct flow too.
	if out := deliver(b, 1, 0, 0, 0); !slices.Equal(out, []uint64{0}) {
		t.Fatalf("reverse flow blocked: %v", out)
	}
	// The parked flow still releases its own run.
	if out := deliver(b, 0, 1, 0, 0); !slices.Equal(out, seqs(0, 2)) {
		t.Fatalf("flow (0,1) released %v, want [0 1]", out)
	}
}

// TestReorderPropertyAnyPermutationReleasesAllInOrder: whatever the
// arrival order of a flow's packets, every packet is eventually
// released exactly once and in sequence order, each release run
// starting where the previous one ended; a second flow interleaved
// with it keeps its own order.
func TestReorderPropertyAnyPermutationReleasesAllInOrder(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		const n = 30
		order := make([]int, n)
		rng.Perm(order)
		other := make([]int, n)
		rng.Perm(other)
		b := NewBufferForHosts(testHosts)
		var released, releasedOther []uint64
		for i := range order {
			released = append(released, deliver(b, 3, 4, uint64(order[i]), sim.Time(i))...)
			releasedOther = append(releasedOther, deliver(b, 4, 3, uint64(other[i]), sim.Time(i))...)
		}
		return slices.Equal(released, seqs(0, n)) && slices.Equal(releasedOther, seqs(0, n)) &&
			b.Held() == 0 && len(b.held) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	b := NewBufferForHosts(testHosts)
	if out := deliver(b, 0, 1, 2, 10); out != nil { // parked
		t.Fatalf("seq 2 released early: %v", out)
	}
	if out := deliver(b, 0, 1, 1, 20); out != nil { // parked
		t.Fatalf("seq 1 released early: %v", out)
	}
	if out := deliver(b, 0, 1, 0, 30); !slices.Equal(out, seqs(0, 3)) { // releases all three
		t.Fatalf("release run = %v, want [0 1 2]", out)
	}
	if b.Parked != 2 || b.PassedThru != 1 {
		t.Fatalf("Parked=%d PassedThru=%d", b.Parked, b.PassedThru)
	}
	if got := b.ParkedFraction(); got < 0.66 || got > 0.67 {
		t.Fatalf("ParkedFraction = %v", got)
	}
	// Delays: seq2 waited 20, seq1 waited 10 -> avg 15.
	if b.AvgReorderDelay() != 15 {
		t.Fatalf("AvgReorderDelay = %v", b.AvgReorderDelay())
	}
}

func TestEmptyBufferStats(t *testing.T) {
	b := NewBufferForHosts(testHosts)
	if b.AvgReorderDelay() != 0 || b.ParkedFraction() != 0 || b.Held() != 0 {
		t.Fatal("empty buffer has nonzero stats")
	}
}

// TestSeqPast32BitsPanics: a flow's counters are 32 bits wide, so a
// SeqNo past 2^32-2 is refused rather than wrapped.
func TestSeqPast32BitsPanics(t *testing.T) {
	b := NewBufferForHosts(testHosts)
	defer func() {
		if recover() == nil {
			t.Fatal("SeqNo 2^32-1 accepted")
		}
	}()
	b.Deliver(0, 1, 1<<32-1, 0)
}
