package reorder

import (
	"testing"
	"testing/quick"

	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// testHosts bounds the host IDs the tests' packets use.
const testHosts = 5

func pkt(id uint64, src, dst int, seq uint64) *ib.Packet {
	return &ib.Packet{ID: id, Src: int32(src), Dst: int32(dst), SeqNo: seq}
}

func TestInOrderPassesThrough(t *testing.T) {
	b := NewBufferForHosts(testHosts)
	for seq := uint64(0); seq < 10; seq++ {
		out := b.Deliver(pkt(seq+1, 0, 1, seq), sim.Time(seq))
		if len(out) != 1 || out[0].SeqNo != seq {
			t.Fatalf("seq %d: out = %v", seq, out)
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
	if out := b.Deliver(pkt(2, 0, 1, 1), 100); out != nil {
		t.Fatalf("early packet released: %v", out)
	}
	if b.Held() != 1 {
		t.Fatalf("Held = %d", b.Held())
	}
	out := b.Deliver(pkt(1, 0, 1, 0), 150)
	if len(out) != 2 || out[0].SeqNo != 0 || out[1].SeqNo != 1 {
		t.Fatalf("release run = %v", out)
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
}

func TestLongInversionRun(t *testing.T) {
	b := NewBufferForHosts(testHosts)
	// Deliver 9..1 first, then 0: everything must release at once, in
	// order.
	for seq := uint64(9); seq >= 1; seq-- {
		if out := b.Deliver(pkt(seq, 0, 1, seq), 10); out != nil {
			t.Fatalf("seq %d released early", seq)
		}
	}
	if b.Held() != 9 {
		t.Fatalf("Held = %d, want 9", b.Held())
	}
	out := b.Deliver(pkt(100, 0, 1, 0), 20)
	if len(out) != 10 {
		t.Fatalf("released %d packets, want 10", len(out))
	}
	for i, p := range out {
		if p.SeqNo != uint64(i) {
			t.Fatalf("out[%d].SeqNo = %d", i, p.SeqNo)
		}
	}
	// Peak occupancy is the end-of-timestamp sample: 9 packets were
	// parked at t=10, released at t=20.
	b.Finalize()
	if b.PeakHeld != 9 {
		t.Fatalf("PeakHeld = %d, want 9", b.PeakHeld)
	}
}

// TestPeakIsEndOfTimestampSample: parks that resolve within the same
// simulated instant do not count toward the peak — only the occupancy
// left when time moves on does, so the sample is independent of the
// dispatch order of equal-time deliveries.
func TestPeakIsEndOfTimestampSample(t *testing.T) {
	b := NewBufferForHosts(testHosts)
	b.Deliver(pkt(2, 0, 1, 1), 10) // parked...
	b.Deliver(pkt(1, 0, 1, 0), 10) // ...and released within t=10
	b.Deliver(pkt(4, 0, 1, 3), 20) // parked across the boundary
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
	if out := b.Deliver(pkt(1, 0, 1, 1), 0); out != nil {
		t.Fatal("flow (0,1) seq 1 released early")
	}
	// A different flow's seq 0 is unaffected by the parked packet.
	out := b.Deliver(pkt(2, 2, 1, 0), 0)
	if len(out) != 1 {
		t.Fatalf("independent flow blocked: %v", out)
	}
	// Reverse direction is a distinct flow too.
	out = b.Deliver(pkt(3, 1, 0, 0), 0)
	if len(out) != 1 {
		t.Fatalf("reverse flow blocked: %v", out)
	}
}

// TestReorderPropertyAnyPermutationReleasesAllInOrder: whatever the
// arrival order of a flow's packets, every packet is eventually
// released exactly once and in sequence order.
func TestReorderPropertyAnyPermutationReleasesAllInOrder(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		const n = 30
		order := make([]int, n)
		rng.Perm(order)
		b := NewBufferForHosts(testHosts)
		var released []uint64
		for i, seqIdx := range order {
			for _, p := range b.Deliver(pkt(uint64(i+1), 3, 4, uint64(seqIdx)), sim.Time(i)) {
				released = append(released, p.SeqNo)
			}
		}
		if len(released) != n || b.Held() != 0 {
			return false
		}
		for i, seq := range released {
			if seq != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	b := NewBufferForHosts(testHosts)
	b.Deliver(pkt(1, 0, 1, 2), 10) // parked
	b.Deliver(pkt(2, 0, 1, 1), 20) // parked
	b.Deliver(pkt(3, 0, 1, 0), 30) // releases all three
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
