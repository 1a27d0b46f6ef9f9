package core

import (
	"testing"
	"testing/quick"
)

func TestSplitHalf(t *testing.T) {
	s := SplitHalf(16)
	if s.CEscape != 8 || s.CAdaptiveCap() != 8 {
		t.Fatalf("SplitHalf(16) = %+v", s)
	}
}

func TestNewCreditSplitValidation(t *testing.T) {
	for _, c := range []struct{ cmax, cesc int }{{0, 0}, {8, 0}, {8, 8}, {8, 9}, {-1, -2}} {
		if _, err := NewCreditSplit(c.cmax, c.cesc); err == nil {
			t.Fatalf("split %+v accepted", c)
		}
	}
	if _, err := NewCreditSplit(16, 4); err != nil {
		t.Fatal(err)
	}
}

func TestCreditFormulasMatchPaper(t *testing.T) {
	// C_XYA = max(0, C - Cmax/2); C_XYE = min(Cmax/2, C), Cmax = 16.
	s := SplitHalf(16)
	cases := []struct{ c, wantA, wantE int }{
		{16, 8, 8}, // empty buffer
		{12, 4, 8},
		{8, 0, 8}, // adaptive region exactly full
		{5, 0, 5},
		{0, 0, 0}, // buffer full
	}
	for _, c := range cases {
		if got := s.Adaptive(c.c); got != c.wantA {
			t.Errorf("Adaptive(%d) = %d, want %d", c.c, got, c.wantA)
		}
		if got := s.Escape(c.c); got != c.wantE {
			t.Errorf("Escape(%d) = %d, want %d", c.c, got, c.wantE)
		}
	}
}

// TestCreditSplitInvariants: for any occupancy, the two logical queues
// partition the available credits: A + E == C, 0 <= A <= Cmax-C0,
// 0 <= E <= C0.
func TestCreditSplitInvariants(t *testing.T) {
	f := func(cmaxRaw, cescRaw, cRaw uint8) bool {
		cmax := int(cmaxRaw%63) + 2
		cesc := int(cescRaw)%(cmax-1) + 1
		s, err := NewCreditSplit(cmax, cesc)
		if err != nil {
			return false
		}
		c := int(cRaw) % (cmax + 1)
		a, e := s.Adaptive(c), s.Escape(c)
		if a+e != c {
			return false
		}
		if a < 0 || a > s.CAdaptiveCap() {
			return false
		}
		return e >= 0 && e <= s.CEscape
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCanUseAdaptiveRequiresAdaptiveRoom(t *testing.T) {
	s := SplitHalf(16)
	// Packet of 4 credits: adaptive region must have >= 4 free.
	if !s.CanUseAdaptive(16, 4) {
		t.Fatal("empty buffer rejected adaptive")
	}
	if !s.CanUseAdaptive(12, 4) {
		t.Fatal("12 credits free (4 adaptive) rejected adaptive 4-credit packet")
	}
	if s.CanUseAdaptive(11, 4) {
		t.Fatal("11 credits free (3 adaptive) accepted adaptive 4-credit packet")
	}
	if s.CanUseAdaptive(8, 1) {
		t.Fatal("full adaptive region accepted adaptive packet")
	}
}

func TestCanUseEscapeRequiresTotalRoom(t *testing.T) {
	s := SplitHalf(16)
	if !s.CanUseEscape(4, 4) {
		t.Fatal("4 free credits rejected a 4-credit escape packet")
	}
	if s.CanUseEscape(3, 4) {
		t.Fatal("3 free credits accepted a 4-credit escape packet")
	}
	// Escape option usable even when only adaptive-region space is
	// left (§4.4: the packet lands wherever there is room).
	if !s.CanUseEscape(16, 4) {
		t.Fatal("empty buffer rejected escape")
	}
}

func TestAdaptiveStricterThanEscape(t *testing.T) {
	// Whenever the adaptive condition holds, the escape condition
	// holds too (adaptive credits are a subset of total credits).
	f := func(cRaw, pktRaw uint8) bool {
		s := SplitHalf(16)
		c := int(cRaw) % 17
		pkt := int(pktRaw)%8 + 1
		if s.CanUseAdaptive(c, pkt) && !s.CanUseEscape(c, pkt) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionConfigString(t *testing.T) {
	if s := DefaultSelection().String(); s != "arbitration/status-aware" {
		t.Fatalf("String = %q", s)
	}
	if s := (SelectionConfig{}).String(); s != "immediate/static" {
		t.Fatalf("String = %q", s)
	}
}
