package ib

import (
	"testing"
	"testing/quick"
)

func TestCredits(t *testing.T) {
	cases := []struct{ size, want int }{
		{0, 1}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}, {256, 4}, {4096, 64},
	}
	for _, c := range cases {
		if got := Credits(c.size); got != c.want {
			t.Errorf("Credits(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestSerializationTime(t *testing.T) {
	// 32 bytes at 4 ns/byte = 128 ns; 256 bytes = 1024 ns.
	if got := SerializationTime(32); got != 128 {
		t.Fatalf("SerializationTime(32) = %v, want 128", got)
	}
	if got := SerializationTime(256); got != 1024 {
		t.Fatalf("SerializationTime(256) = %v, want 1024", got)
	}
}

func TestAddressPlanBasics(t *testing.T) {
	p, err := NewAddressPlan(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.RangeSize() != 2 {
		t.Fatalf("RangeSize = %d, want 2", p.RangeSize())
	}
	if p.BaseLID(0) != 2 {
		t.Fatalf("BaseLID(0) = %d, want 2 (LID 0 reserved)", p.BaseLID(0))
	}
	if p.AdaptiveLID(0) != 3 {
		t.Fatalf("AdaptiveLID(0) = %d, want 3", p.AdaptiveLID(0))
	}
	if p.DLIDFor(5, false) != p.BaseLID(5) || p.DLIDFor(5, true) != p.AdaptiveLID(5) {
		t.Fatal("DLIDFor disagrees with Base/Adaptive LIDs")
	}
}

func TestAddressPlanRejectsBadShapes(t *testing.T) {
	if _, err := NewAddressPlan(10, MaxLMC+1); err == nil {
		t.Fatal("LMC 8 accepted")
	}
	if _, err := NewAddressPlan(0, 1); err == nil {
		t.Fatal("zero hosts accepted")
	}
	if _, err := NewAddressPlan(40000, 1); err == nil {
		t.Fatal("LID space overflow accepted")
	}
}

func TestAddressPlanLIDZeroUnowned(t *testing.T) {
	p, err := NewAddressPlan(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.HostOf(0); ok {
		t.Fatal("LID 0 decoded to a host")
	}
}

func TestAddressPlanHostOfRoundTrip(t *testing.T) {
	for _, lmc := range []uint{0, 1, 2, 3, 7} {
		p, err := NewAddressPlan(100, lmc)
		if err != nil {
			t.Fatal(err)
		}
		for host := 0; host < 100; host++ {
			for off := 0; off < p.RangeSize(); off++ {
				lid := p.BaseLID(host) + LID(off)
				got, ok := p.HostOf(lid)
				if !ok || got != host {
					t.Fatalf("lmc=%d HostOf(%d) = (%d,%v), want (%d,true)", lmc, lid, got, ok, host)
				}
			}
		}
	}
}

func TestAddressPlanRangesDisjoint(t *testing.T) {
	p, err := NewAddressPlan(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[LID]int{}
	for host := 0; host < 64; host++ {
		for off := 0; off < p.RangeSize(); off++ {
			lid := p.BaseLID(host) + LID(off)
			if prev, dup := owner[lid]; dup {
				t.Fatalf("LID %d owned by hosts %d and %d", lid, prev, host)
			}
			owner[lid] = host
		}
	}
}

func TestAddressPlanAdaptiveBit(t *testing.T) {
	p, err := NewAddressPlan(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	for host := 0; host < 32; host++ {
		if p.IsAdaptive(p.BaseLID(host)) {
			t.Fatalf("base LID of host %d reads adaptive", host)
		}
		if !p.IsAdaptive(p.AdaptiveLID(host)) {
			t.Fatalf("adaptive LID of host %d reads deterministic", host)
		}
	}
}

func TestAddressPlanLMCZeroNoAdaptive(t *testing.T) {
	p, err := NewAddressPlan(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.AdaptiveLID(3) != p.BaseLID(3) {
		t.Fatal("LMC 0 produced a distinct adaptive LID")
	}
	if p.IsAdaptive(p.BaseLID(3)) {
		t.Fatal("LMC 0 LID reads adaptive")
	}
}

func TestAddressPlanHostOfProperty(t *testing.T) {
	p, err := NewAddressPlan(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		lid := LID(raw)
		host, ok := p.HostOf(lid)
		if !ok {
			// Outside every range: below first base or above max.
			return lid < p.BaseLID(0) || lid > p.MaxLID()
		}
		return lid >= p.BaseLID(host) && lid < p.BaseLID(host)+LID(p.RangeSize())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearForwardingTable(t *testing.T) {
	tab := NewLinearForwardingTable(100)
	if tab.Len() != 101 {
		t.Fatalf("Len = %d, want 101", tab.Len())
	}
	if tab.Get(5) != InvalidPort {
		t.Fatal("fresh entry not invalid")
	}
	if err := tab.Set(5, 3); err != nil {
		t.Fatal(err)
	}
	if tab.Get(5) != 3 {
		t.Fatalf("Get(5) = %d, want 3", tab.Get(5))
	}
	if err := tab.Set(101, 0); err == nil {
		t.Fatal("out-of-range Set accepted")
	}
	if tab.Get(200) != InvalidPort {
		t.Fatal("out-of-range Get not invalid")
	}
}

func TestPacketLatencyAndCredits(t *testing.T) {
	p := &Packet{Size: 100, CreatedAt: 10, DeliveredAt: 510}
	if p.Latency() != 500 {
		t.Fatalf("Latency = %v, want 500", p.Latency())
	}
	if p.Credits() != 2 {
		t.Fatalf("Credits = %d, want 2", p.Credits())
	}
}
