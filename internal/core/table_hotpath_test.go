package core

import (
	"runtime"
	"testing"

	"ibasim/internal/ib"
)

// programBlock fills host 5's LID block with the given ports.
func programBlock(t *testing.T, tab *AdaptiveTable, base ib.LID, ports []ib.PortID) {
	t.Helper()
	for off, port := range ports {
		if err := tab.Set(base+ib.LID(off), port); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSetInvalidatesCachedBlock(t *testing.T) {
	plan, tab := plan2(t)
	base := plan.BaseLID(5)
	programBlock(t, tab, base, []ib.PortID{7, 2, 3, 4})
	dlid := plan.DLIDFor(5, true)

	escape, adaptive, err := tab.Lookup(dlid) // warms the block cache
	if err != nil {
		t.Fatal(err)
	}
	if escape != 7 || len(adaptive) != 3 {
		t.Fatalf("warm lookup = (%d, %v), want (7, [2 3 4])", escape, adaptive)
	}
	old := adaptive

	// Re-program the whole block the way the subnet manager does on a
	// reconfiguration sweep: every slot, including a duplicate option.
	programBlock(t, tab, base, []ib.PortID{9, 8, 8, 9})
	escape, adaptive, err = tab.Lookup(dlid)
	if err != nil {
		t.Fatal(err)
	}
	if escape != 9 {
		t.Fatalf("escape after reprogram = %d, want 9", escape)
	}
	if len(adaptive) != 2 || adaptive[0] != 8 || adaptive[1] != 9 {
		t.Fatalf("adaptive after reprogram = %v, want [8 9]", adaptive)
	}

	// In-flight holders of the superseded option set must be unharmed:
	// the old slice keeps its pre-reconfiguration contents.
	if old[0] != 2 || old[1] != 3 || old[2] != 4 {
		t.Fatalf("superseded option slice mutated: %v", old)
	}

	// The deterministic view follows the same invalidation.
	if esc, _, err := tab.Lookup(plan.DLIDFor(5, false)); err != nil || esc != 9 {
		t.Fatalf("deterministic lookup after reprogram = (%d, %v), want (9, nil)", esc, err)
	}
}

// TestRedecodeKeepsUnchangedRegion: re-programming a block with the
// options it already holds (every table write of a reconfiguration
// that leaves a destination's routes alone) re-decodes to the same
// arena region, so the arena grows only for blocks whose options moved.
func TestRedecodeKeepsUnchangedRegion(t *testing.T) {
	plan, tab := plan2(t)
	base := plan.BaseLID(5)
	programBlock(t, tab, base, []ib.PortID{7, 2, 3, 4})
	dlid := plan.DLIDFor(5, true)
	_, first, err := tab.Lookup(dlid)
	if err != nil {
		t.Fatal(err)
	}
	grown := len(tab.arena)
	programBlock(t, tab, base, []ib.PortID{6, 2, 3, 4}) // new escape, same options
	esc, again, err := tab.Lookup(dlid)
	if err != nil {
		t.Fatal(err)
	}
	if esc != 6 || &again[0] != &first[0] || len(again) != 3 {
		t.Fatalf("re-decode = (%d, %v at %p), want (6, the region at %p)", esc, again, &again[0], &first[0])
	}
	if len(tab.arena) != grown {
		t.Fatalf("arena grew from %d to %d on an unchanged block", grown, len(tab.arena))
	}
	if cap(again) != len(again) {
		t.Fatalf("option slice has capacity %d past its %d options", cap(again), len(again))
	}
}

func TestSetInvalidatesOnlyItsBlock(t *testing.T) {
	plan, tab := plan2(t)
	programBlock(t, tab, plan.BaseLID(3), []ib.PortID{1, 2, 2, 2})
	programBlock(t, tab, plan.BaseLID(4), []ib.PortID{5, 6, 6, 6})
	if _, _, err := tab.Lookup(plan.DLIDFor(3, true)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.Lookup(plan.DLIDFor(4, true)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Set(plan.BaseLID(4), 7); err != nil {
		t.Fatal(err)
	}
	escape, adaptive, err := tab.Lookup(plan.DLIDFor(3, true))
	if err != nil {
		t.Fatal(err)
	}
	if escape != 1 || len(adaptive) != 1 || adaptive[0] != 2 {
		t.Fatalf("unrelated block changed: (%d, %v), want (1, [2])", escape, adaptive)
	}
	if esc, _, err := tab.Lookup(plan.DLIDFor(4, false)); err != nil || esc != 7 {
		t.Fatalf("reprogrammed block = (%d, %v), want (7, nil)", esc, err)
	}
}

// TestLookupZeroAllocsWarm is the alloc regression gate for the
// forwarding-table access: after the first lookup decodes a block,
// every further lookup of it must be allocation-free.
func TestLookupZeroAllocsWarm(t *testing.T) {
	plan, tab := plan2(t)
	programBlock(t, tab, plan.BaseLID(5), []ib.PortID{7, 2, 3, 4})
	adaptiveDLID := plan.DLIDFor(5, true)
	detDLID := plan.DLIDFor(5, false)
	if _, _, err := tab.Lookup(adaptiveDLID); err != nil { // warm
		t.Fatal(err)
	}
	allocs := mallocsPerRun(1000, func() {
		if _, _, err := tab.Lookup(adaptiveDLID); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tab.Lookup(detDLID); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Lookup allocates %v objects per call pair, want 0", allocs)
	}
}

// BenchmarkLookup measures the warm forwarding-table access, the
// operation every packet head arrival performs.
func BenchmarkLookup(b *testing.B) {
	plan, err := ib.NewAddressPlan(64, 2)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := NewAdaptiveTable(plan.MaxLID(), 2)
	if err != nil {
		b.Fatal(err)
	}
	for h := 0; h < 64; h++ {
		base := plan.BaseLID(h)
		for off := 0; off < plan.RangeSize(); off++ {
			if err := tab.Set(base+ib.LID(off), ib.PortID(1+(h+off)%7)); err != nil {
				b.Fatal(err)
			}
		}
	}
	dlids := make([]ib.LID, 64)
	for h := range dlids {
		dlids[h] = plan.DLIDFor(h, h%2 == 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tab.Lookup(dlids[i%len(dlids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// mallocsPerRun is testing.AllocsPerRun without its rounding down: it
// runs f once to warm up, then runs times, and returns the mean number
// of heap objects allocated per run as a float, so a bound below one
// allocation per run is a real bound. Like AllocsPerRun it pins
// GOMAXPROCS to 1 while it measures.
func mallocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
