package routing_test

// Cross-family routing-engine conformance suite: one table of
// shapes per family, one set of contract assertions. Every engine —
// up*/down* over irregular graphs, D-mod-K over fat-trees,
// dimension-order over tori — must satisfy the same Engine contract:
// an acyclic escape CDG (Duato's condition, the deadlock-freedom
// guarantee), legal escape tables, minimal adaptive option sets, and,
// for families that promise it, a minimal escape path that appears in
// its own adaptive option set.

import (
	"fmt"
	"strings"
	"testing"

	"ibasim/internal/routing"
	"ibasim/internal/topology"
)

// conformanceCase is one family+shape under test. build produces the
// pristine fabric; builder is the family's routing.Builder for it.
type conformanceCase struct {
	name    string
	engine  string // Engine.Name expected on the pristine fabric
	build   func() (*topology.Topology, error)
	builder func() routing.Builder
}

func conformanceCases() []conformanceCase {
	var cases []conformanceCase
	for _, seed := range []uint64{1, 2, 3, 7} {
		spec := topology.IrregularSpec{NumSwitches: 16, HostsPerSwitch: 4, InterSwitch: 4, Seed: seed}
		cases = append(cases, conformanceCase{
			name:    fmt.Sprintf("updown/irregular-seed%d", seed),
			engine:  "updown",
			build:   func() (*topology.Topology, error) { return topology.GenerateIrregular(spec) },
			builder: func() routing.Builder { return routing.UpDownBuilder(-1) },
		})
	}
	for _, ft := range []topology.FatTreeSpec{
		{Arity: 2, Levels: 2}, {Arity: 2, Levels: 3}, {Arity: 2, Levels: 4},
		{Arity: 3, Levels: 2}, {Arity: 3, Levels: 3}, {Arity: 4, Levels: 2},
	} {
		ft := ft
		cases = append(cases, conformanceCase{
			name:    ft.String(),
			engine:  "fattree",
			build:   func() (*topology.Topology, error) { return topology.GenerateFatTree(ft) },
			builder: func() routing.Builder { return routing.FatTreeBuilder(ft) },
		})
	}
	for _, to := range []topology.TorusSpec{
		{Dims: []int{2, 2}, HostsPerSwitch: 1},
		{Dims: []int{4, 4}, HostsPerSwitch: 1},
		{Dims: []int{3, 5}, HostsPerSwitch: 2},
		{Dims: []int{2, 3, 4}, HostsPerSwitch: 1},
		{Dims: []int{4, 4, 2}, HostsPerSwitch: 1},
	} {
		to := to
		cases = append(cases, conformanceCase{
			name:    to.String(),
			engine:  "torus",
			build:   func() (*topology.Topology, error) { return topology.GenerateTorus(to) },
			builder: func() routing.Builder { return routing.TorusBuilder(to) },
		})
	}
	return cases
}

// TestEngineConformance runs the full contract against every family
// and shape in the table.
func TestEngineConformance(t *testing.T) {
	for _, tc := range conformanceCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			topo, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := tc.builder()(topo)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Name != tc.engine {
				t.Fatalf("pristine fabric built engine %q, want %q", eng.Name, tc.engine)
			}

			// Contract 1: deadlock-free escape CDG (Duato's condition).
			if err := eng.Verify(); err != nil {
				t.Fatalf("escape CDG cyclic: %v", err)
			}
			det := eng.Deterministic
			if err := routing.VerifyDeadlockFreeAll([]*routing.Deterministic{det}); err != nil {
				t.Fatalf("VerifyDeadlockFreeAll: %v", err)
			}

			// Contract 2: legal, loop-free escape tables with consistent
			// path lengths.
			if err := det.Validate(); err != nil {
				t.Fatalf("escape tables invalid: %v", err)
			}

			// Contract 3: adaptive options are exactly the minimal next
			// hops and every routed pair has an escape hop.
			fa := eng.Adaptive
			if err := fa.Validate(); err != nil {
				t.Fatalf("adaptive options invalid: %v", err)
			}

			// Contract 4: every routed destination is host-bearing and
			// reachable, and vice versa.
			dists := topo.AllDistances()
			for d := 0; d < topo.NumSwitches; d++ {
				if det.Routes(d) != (topo.HostCount(d) > 0) {
					t.Fatalf("Routes(%d)=%v but HostCount=%d", d, det.Routes(d), topo.HostCount(d))
				}
				if det.Routes(d) && dists[0][d] < 0 {
					t.Fatalf("destination %d routed but unreachable", d)
				}
			}

			// Contract 5 (conditional): families advertising a minimal
			// escape must deliver shortest-path escape tables whose hop is
			// one of the minimal adaptive options; non-minimal families
			// must still never beat the shortest path.
			for s := 0; s < topo.NumSwitches; s++ {
				for d := 0; d < topo.NumSwitches; d++ {
					if s == d || !det.Routes(d) {
						continue
					}
					if det.PathLen[s][d] < dists[s][d] {
						t.Fatalf("escape path %d->%d length %d beats shortest %d", s, d, det.PathLen[s][d], dists[s][d])
					}
					if !eng.MinimalEscape {
						continue
					}
					if det.PathLen[s][d] != dists[s][d] {
						t.Fatalf("minimal-escape engine inflates %d->%d: table %d, shortest %d", s, d, det.PathLen[s][d], dists[s][d])
					}
					if !contains(fa.Options(s, d, 0), fa.Escape(s, d)) {
						t.Fatalf("escape hop %d of %d->%d missing from adaptive options %v", fa.Escape(s, d), s, d, fa.Options(s, d, 0))
					}
				}
			}
		})
	}
}

// TestTorusEscapeAvoidsWraps pins the property that makes the
// dimension-order escape CDG acyclic without extra virtual channels:
// the escape tables route over mesh links only, never a wraparound.
func TestTorusEscapeAvoidsWraps(t *testing.T) {
	for _, spec := range []topology.TorusSpec{
		{Dims: []int{4, 4}, HostsPerSwitch: 1},
		{Dims: []int{3, 5}, HostsPerSwitch: 1},
		{Dims: []int{3, 3, 4}, HostsPerSwitch: 1},
	} {
		topo, err := topology.GenerateTorus(spec)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := routing.TorusBuilder(spec)(topo)
		if err != nil {
			t.Fatal(err)
		}
		det := eng.Deterministic
		for s := 0; s < topo.NumSwitches; s++ {
			for d := 0; d < topo.NumSwitches; d++ {
				hop := det.NextHop[s][d]
				if hop < 0 || s == d {
					continue
				}
				if spec.IsWrapLink(s, hop) {
					t.Fatalf("%s: escape %d->%d uses wrap link %s--%s",
						spec, s, d, spec.Name(s), spec.Name(hop))
				}
			}
		}
	}
}

// TestStructuredBuildersDegradeToUpDown pins the fault-tolerance seam:
// when the fabric no longer matches the pristine family shape (a link
// has failed), the family builders fall back to topology-agnostic
// up*/down* so reconfiguration keeps working mid-campaign.
func TestStructuredBuildersDegradeToUpDown(t *testing.T) {
	ft := topology.FatTreeSpec{Arity: 2, Levels: 3}
	ftTopo, err := topology.GenerateFatTree(ft)
	if err != nil {
		t.Fatal(err)
	}
	to := topology.TorusSpec{Dims: []int{4, 4}, HostsPerSwitch: 2}
	toTopo, err := topology.GenerateTorus(to)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		builder routing.Builder
		topo    *topology.Topology
	}{
		{"fattree", routing.FatTreeBuilder(ft), ftTopo},
		{"torus", routing.TorusBuilder(to), toTopo},
	}
	for _, tc := range cases {
		degraded := tc.topo.Without(tc.topo.Links[0])
		eng, err := tc.builder(degraded)
		if err != nil {
			t.Fatalf("%s: degraded build failed: %v", tc.name, err)
		}
		if eng.Name != "updown" {
			t.Fatalf("%s: degraded fabric got engine %q, want updown fallback", tc.name, eng.Name)
		}
		if err := eng.Verify(); err != nil {
			t.Fatalf("%s: fallback escape CDG cyclic: %v", tc.name, err)
		}
		if err := eng.Adaptive.Validate(); err != nil {
			t.Fatalf("%s: fallback adaptive options invalid: %v", tc.name, err)
		}
	}
}

// TestFormatCycleNamed pins the family-aware cycle rendering the CDG
// verifier emits: coordinates for tori, level/position for fat-trees,
// bare IDs when no names exist.
func TestFormatCycleNamed(t *testing.T) {
	spec := topology.TorusSpec{Dims: []int{3, 3}, HostsPerSwitch: 1}
	topo, err := topology.GenerateTorus(spec)
	if err != nil {
		t.Fatal(err)
	}
	n := topo.NumSwitches
	cycle := []int{routing.ChannelID(0, 1, n), routing.ChannelID(1, 2, n)}
	got := routing.FormatCycleNamed(cycle, n, topo.NodeName)
	want := " ((0,0)->(1,0)) ((1,0)->(2,0))"
	if got != want {
		t.Fatalf("named cycle %q, want %q", got, want)
	}
	anon := routing.FormatCycle(cycle, n)
	if !strings.Contains(anon, "(0->1)") || !strings.Contains(anon, "(1->2)") {
		t.Fatalf("anonymous cycle %q lacks numeric channels", anon)
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
