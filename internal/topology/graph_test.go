package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustRing(t *testing.T, n int) *Topology {
	t.Helper()
	top, err := Ring(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestAddLinkRejectsSelfLoop(t *testing.T) {
	top := New(4, 4, 8)
	if err := top.AddLink(2, 2); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestAddLinkRejectsDuplicate(t *testing.T) {
	top := New(4, 4, 8)
	if err := top.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := top.AddLink(1, 0); err == nil {
		t.Fatal("duplicate (reversed) link accepted")
	}
}

func TestAddLinkRejectsOutOfRange(t *testing.T) {
	top := New(4, 4, 8)
	for _, pair := range [][2]int{{-1, 0}, {0, 4}, {7, 8}} {
		if err := top.AddLink(pair[0], pair[1]); err == nil {
			t.Fatalf("out-of-range link %v accepted", pair)
		}
	}
}

func TestAddLinkEnforcesPortBudget(t *testing.T) {
	// 4 hosts + 8 ports total = 4 inter-switch ports per switch.
	top := New(6, 4, 8)
	for _, b := range []int{1, 2, 3, 4} {
		if err := top.AddLink(0, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := top.AddLink(0, 5); err == nil {
		t.Fatal("fifth inter-switch link accepted with budget 4")
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	top := mustRing(t, 5)
	for s := 0; s < 5; s++ {
		if d := top.Degree(s); d != 2 {
			t.Fatalf("ring degree(%d) = %d, want 2", s, d)
		}
	}
	ns := top.Neighbors(0)
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 4 {
		t.Fatalf("Neighbors(0) = %v, want [1 4]", ns)
	}
}

func TestHostMapping(t *testing.T) {
	top := New(3, 4, 8)
	if top.NumHosts() != 12 {
		t.Fatalf("NumHosts = %d, want 12", top.NumHosts())
	}
	if top.HostSwitch(0) != 0 || top.HostSwitch(4) != 1 || top.HostSwitch(11) != 2 {
		t.Fatal("HostSwitch mapping wrong")
	}
	hosts := top.SwitchHosts(1)
	want := []int{4, 5, 6, 7}
	for i := range want {
		if hosts[i] != want[i] {
			t.Fatalf("SwitchHosts(1) = %v, want %v", hosts, want)
		}
	}
}

func TestConnected(t *testing.T) {
	top := mustRing(t, 6)
	if !top.Connected() {
		t.Fatal("ring reported disconnected")
	}
	disc := New(4, 4, 8)
	if err := disc.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := disc.AddLink(2, 3); err != nil {
		t.Fatal(err)
	}
	if disc.Connected() {
		t.Fatal("two components reported connected")
	}
}

func TestDistancesRing(t *testing.T) {
	top := mustRing(t, 6)
	d := top.Distances(0)
	want := []int{0, 1, 2, 3, 2, 1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Distances(0) = %v, want %v", d, want)
		}
	}
}

func TestDiameter(t *testing.T) {
	ring := mustRing(t, 8)
	if got := ring.Diameter(); got != 4 {
		t.Fatalf("ring-8 diameter = %d, want 4", got)
	}
	line, err := Line(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := line.Diameter(); got != 4 {
		t.Fatalf("line-5 diameter = %d, want 4", got)
	}
	full, err := FullyConnected(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := full.Diameter(); got != 1 {
		t.Fatalf("K6 diameter = %d, want 1", got)
	}
}

func TestDiameterDisconnected(t *testing.T) {
	disc := New(3, 4, 8)
	if err := disc.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := disc.Diameter(); got != -1 {
		t.Fatalf("disconnected diameter = %d, want -1", got)
	}
}

func TestAvgDistanceCompleteGraph(t *testing.T) {
	full, err := FullyConnected(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := full.AvgDistance(); got != 1 {
		t.Fatalf("K5 avg distance = %v, want 1", got)
	}
}

func TestValidateAcceptsGoodTopology(t *testing.T) {
	if err := mustRing(t, 5).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsDisconnected(t *testing.T) {
	disc := New(4, 4, 8)
	_ = disc.AddLink(0, 1)
	_ = disc.AddLink(2, 3)
	if err := disc.Validate(); err == nil {
		t.Fatal("Validate accepted disconnected topology")
	}
}

// TestValidateRejectsHandBuiltFaults: Validate indexes Links afresh,
// so a topology assembled by hand — past AddLink's checks — still has
// its malformed, duplicate and over-budget links reported, each with
// its own message.
func TestValidateRejectsHandBuiltFaults(t *testing.T) {
	for _, c := range []struct {
		links []Link
		want  string
	}{
		{[]Link{{0, 1}, {1, 2}, {0, 1}}, "duplicate link"},
		{[]Link{{1, 0}, {1, 2}}, "malformed link"},
		{[]Link{{0, 3}, {1, 2}}, "malformed link"},
		{[]Link{{0, 1}, {0, 2}, {1, 2}}, "exceeds budget"},
	} {
		top := New(3, 1, 2) // one host port, one link port per switch
		top.Links = c.links
		if err := top.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("links %v: Validate = %v, want %q", c.links, err, c.want)
		}
	}
}

// TestLinkIndexMatchesLinks: HasLink and Degree answer from an index
// that AddLink and the generator's double-edge swaps keep in step with
// Links; after generation it must agree with a scan of Links on every
// pair.
func TestLinkIndexMatchesLinks(t *testing.T) {
	for _, spec := range []IrregularSpec{
		{NumSwitches: 8, HostsPerSwitch: 4, InterSwitch: 6, Seed: 1},
		{NumSwitches: 16, HostsPerSwitch: 4, InterSwitch: 4, Seed: 2},
		{NumSwitches: 64, HostsPerSwitch: 4, InterSwitch: 4, Seed: 3},
	} {
		top, err := GenerateIrregular(spec)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < top.NumSwitches; a++ {
			deg := 0
			for b := 0; b < top.NumSwitches; b++ {
				scan := false
				for _, l := range top.Links {
					scan = scan || l == Link{A: min(a, b), B: max(a, b)}
				}
				if top.HasLink(a, b) != scan {
					t.Fatalf("%+v: HasLink(%d,%d) = %v, Links say %v", spec, a, b, !scan, scan)
				}
				if scan {
					deg++
				}
			}
			if top.Degree(a) != deg {
				t.Fatalf("%+v: Degree(%d) = %d, Links say %d", spec, a, top.Degree(a), deg)
			}
		}
	}
}

func TestMesh2DShape(t *testing.T) {
	m, err := Mesh2D(3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSwitches != 12 {
		t.Fatalf("mesh switches = %d, want 12", m.NumSwitches)
	}
	// 3x4 mesh: 3*(4-1) horizontal + 4*(3-1) vertical = 9 + 8 = 17.
	if len(m.Links) != 17 {
		t.Fatalf("mesh links = %d, want 17", len(m.Links))
	}
	if m.Diameter() != 5 {
		t.Fatalf("mesh diameter = %d, want 5", m.Diameter())
	}
}

func TestMeshCornerAndCenterDegrees(t *testing.T) {
	m, err := Mesh2D(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Degree(0); d != 2 {
		t.Fatalf("corner degree = %d, want 2", d)
	}
	if d := m.Degree(4); d != 4 {
		t.Fatalf("center degree = %d, want 4", d)
	}
}

func TestWithoutRemovesLinks(t *testing.T) {
	top := mustRing(t, 6)
	reduced := top.Without(Link{A: 0, B: 1}, Link{A: 5, B: 0})
	if len(reduced.Links) != 4 {
		t.Fatalf("links = %d, want 4", len(reduced.Links))
	}
	if reduced.HasLink(0, 1) || reduced.HasLink(0, 5) {
		t.Fatal("removed links still present")
	}
	// Ring minus two adjacent links: node 0 isolated -> disconnected.
	if reduced.Connected() {
		t.Fatal("reduced ring with isolated node reported connected")
	}
	// The original is untouched.
	if len(top.Links) != 6 {
		t.Fatal("Without mutated the original")
	}
}

func TestWithoutNormalizesLinkOrder(t *testing.T) {
	top := mustRing(t, 5)
	// Pass the link reversed; it must still match.
	reduced := top.Without(Link{A: 1, B: 0})
	if reduced.HasLink(0, 1) {
		t.Fatal("reversed link spec not removed")
	}
	if len(reduced.Links) != 4 {
		t.Fatalf("links = %d, want 4", len(reduced.Links))
	}
}

func TestWithoutNothing(t *testing.T) {
	top := mustRing(t, 4)
	reduced := top.Without()
	if len(reduced.Links) != len(top.Links) {
		t.Fatal("Without() changed link count")
	}
}

// TestDistancesSymmetry: hop distance is symmetric on undirected graphs.
func TestDistancesSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		top := MustGenerateIrregular(IrregularSpec{
			NumSwitches: 8, HostsPerSwitch: 4, InterSwitch: 4, Seed: seed,
		})
		all := top.AllDistances()
		for a := 0; a < top.NumSwitches; a++ {
			for b := 0; b < top.NumSwitches; b++ {
				if all[a][b] != all[b][a] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
