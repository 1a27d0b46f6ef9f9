package ib

import (
	"strings"
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

// TestAddressPlanStaysUnicast: LIDs 0xC000–0xFFFE are multicast, so a
// plan may reach 0xBFFF and no further.
func TestAddressPlanStaysUnicast(t *testing.T) {
	p, err := NewAddressPlan(24575, 1)
	if err != nil {
		t.Fatalf("24,575 hosts at LMC 1 refused: %v", err)
	}
	if p.MaxLID() != 0xBFFF {
		t.Fatalf("MaxLID = %#x, want 0xbfff", p.MaxLID())
	}
	for _, c := range []struct {
		hosts int
		lmc   uint
	}{{24576, 1}, {32766, 1}, {49152, 0}, {1 << 14, 2}} {
		if p, err := NewAddressPlan(c.hosts, c.lmc); err == nil {
			t.Fatalf("%d hosts at LMC %d accepted with MaxLID %#x", c.hosts, c.lmc, p.MaxLID())
		} else if !strings.Contains(err.Error(), "unicast range") {
			t.Fatalf("%d hosts at LMC %d: error %q does not name the unicast range", c.hosts, c.lmc, err)
		}
	}
	if p, err := NewAddressPlan(49151, 0); err != nil || p.MaxLID() != 0xBFFF {
		t.Fatalf("49,151 hosts at LMC 0: plan %+v, err %v; want MaxLID 0xbfff", p, err)
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

// TestLinearForwardingTableByteEntries: an entry is one byte, so ports
// 0..254 store and read back, 255 and negative ports other than
// InvalidPort are refused without touching the entry, and InvalidPort
// clears it.
func TestLinearForwardingTableByteEntries(t *testing.T) {
	tab := NewLinearForwardingTable(10)
	for _, p := range []PortID{0, 1, MaxPorts - 1} {
		if err := tab.Set(3, p); err != nil || tab.Get(3) != p {
			t.Fatalf("Set(3, %d): err %v, Get = %d", p, err, tab.Get(3))
		}
	}
	for _, p := range []PortID{MaxPorts, 256, 1 << 20, -2} {
		if err := tab.Set(3, p); err == nil {
			t.Fatalf("port %d accepted", p)
		}
		if tab.Get(3) != MaxPorts-1 {
			t.Fatalf("refused port %d changed the entry to %d", p, tab.Get(3))
		}
	}
	if err := tab.Set(3, InvalidPort); err != nil || tab.Get(3) != InvalidPort {
		t.Fatalf("Set(3, InvalidPort): err %v, Get = %d", err, tab.Get(3))
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
