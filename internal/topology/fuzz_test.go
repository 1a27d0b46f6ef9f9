package topology_test

// FuzzIrregularTopology lives outside the package so it can close the
// loop through the routing layer: topology cannot import routing (the
// dependency points the other way), but the property worth fuzzing is
// end to end — every generated graph must route deadlock-free.

import (
	"testing"

	"ibasim/internal/routing"
	"ibasim/internal/topology"
)

// FuzzIrregularTopology fuzzes the paper's random irregular generator
// (§5.1) over its whole evaluation envelope: any (switches, links,
// seed) in range must produce a connected, exactly links-regular
// simple graph whose up*/down* escape tables pass Duato's acyclicity
// condition. The corpus seeds are the Figure 3 geometries (8–64
// switches, 4 links) plus Table 2's 6-link variant, so a plain `go
// test` replays them as regression cases.
func FuzzIrregularTopology(f *testing.F) {
	for _, sw := range []int{8, 16, 32, 64} {
		f.Add(sw, 4, uint64(1))
	}
	f.Add(16, 6, uint64(3))
	f.Fuzz(func(t *testing.T, switches, links int, seed uint64) {
		if switches < 8 || switches > 64 || links < 2 || links > 6 {
			t.Skip("outside the paper's geometry envelope")
		}
		if links >= switches || switches*links%2 != 0 {
			t.Skip("no regular graph exists (degree or stub parity)")
		}
		spec := topology.IrregularSpec{
			NumSwitches: switches, HostsPerSwitch: 4, InterSwitch: links, Seed: seed,
		}
		topo, err := topology.GenerateIrregular(spec)
		if err != nil {
			t.Fatalf("feasible spec %+v rejected: %v", spec, err)
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("spec %+v: %v", spec, err)
		}
		if !topo.Connected() {
			t.Fatalf("spec %+v: disconnected", spec)
		}
		for s := 0; s < topo.NumSwitches; s++ {
			if d := topo.Degree(s); d != links {
				t.Fatalf("spec %+v: switch %d degree %d, want %d (regular)", spec, s, d, links)
			}
		}
		ud, err := routing.NewUpDown(topo)
		if err != nil {
			t.Fatalf("spec %+v: up*/down* failed: %v", spec, err)
		}
		if err := routing.VerifyDeadlockFree(ud.Tables()); err != nil {
			t.Fatalf("spec %+v: escape CDG cyclic: %v", spec, err)
		}
	})
}

// checkFamily runs the structural and routing properties every
// generated fabric must satisfy regardless of family: a valid,
// connected graph whose family engine produces legal escape tables
// with an acyclic escape CDG (checked through FindCycle directly, the
// same walk VerifyDeadlockFree wraps) and valid adaptive options.
func checkFamily(t *testing.T, topo *topology.Topology, build routing.Builder, engine string) {
	t.Helper()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if !topo.Connected() {
		t.Fatal("disconnected")
	}
	eng, err := build(topo)
	if err != nil {
		t.Fatalf("engine build failed: %v", err)
	}
	if eng.Name != engine {
		t.Fatalf("pristine fabric built engine %q, want %q", eng.Name, engine)
	}
	det := eng.Deterministic
	if cycle := routing.FindCycle(routing.EscapeCDG(det)); cycle != nil {
		t.Fatalf("escape CDG cyclic:%s",
			routing.FormatCycleNamed(cycle, topo.NumSwitches, topo.NodeName))
	}
	if err := det.Validate(); err != nil {
		t.Fatalf("escape tables invalid: %v", err)
	}
	if err := eng.Adaptive.Validate(); err != nil {
		t.Fatalf("adaptive options invalid: %v", err)
	}
}

// FuzzFatTreeTopology fuzzes the k-ary n-tree generator over its shape
// envelope: every (arity, levels) pair must produce a connected fabric
// with hosts only on the leaf row, the expected per-row link structure,
// and acyclic D-mod-K escape tables. The corpus replays the shapes the
// conformance suite pins.
func FuzzFatTreeTopology(f *testing.F) {
	f.Add(2, 2)
	f.Add(2, 3)
	f.Add(3, 2)
	f.Add(3, 3)
	f.Fuzz(func(t *testing.T, arity, levels int) {
		spec := topology.FatTreeSpec{Arity: arity, Levels: levels}
		if spec.Validate() != nil || spec.NumSwitches() > 300 {
			t.Skip("outside the fuzz envelope")
		}
		topo, err := topology.GenerateFatTree(spec)
		if err != nil {
			t.Fatalf("feasible spec %v rejected: %v", spec, err)
		}
		for id := 0; id < topo.NumSwitches; id++ {
			wantHosts := 0
			if spec.SwitchLevel(id) == 0 {
				wantHosts = arity
			}
			if got := topo.HostCount(id); got != wantHosts {
				t.Fatalf("switch %s has %d hosts, want %d", spec.Name(id), got, wantHosts)
			}
			wantDeg := 2 * arity // k up + k down
			if l := spec.SwitchLevel(id); l == 0 || l == levels-1 {
				wantDeg = arity // leaves have no down links, roots no up links
			}
			if got := topo.Degree(id); got != wantDeg {
				t.Fatalf("switch %s degree %d, want %d", spec.Name(id), got, wantDeg)
			}
		}
		checkFamily(t, topo, routing.FatTreeBuilder(spec), "fattree")
	})
}

// FuzzTorusTopology fuzzes the torus generator over 2D and 3D shapes
// with varying host attachment: every shape must produce a connected
// fabric whose dimension-order escape tables are acyclic — including
// the size-2 dimensions where mesh and wrap edges collapse into one
// link. dimZ <= 1 selects a 2D torus.
func FuzzTorusTopology(f *testing.F) {
	f.Add(4, 4, 0, 1)
	f.Add(3, 5, 0, 2)
	f.Add(2, 3, 4, 1)
	f.Add(2, 2, 2, 1)
	f.Fuzz(func(t *testing.T, dimX, dimY, dimZ, hosts int) {
		dims := []int{dimX, dimY}
		if dimZ > 1 {
			dims = append(dims, dimZ)
		}
		spec := topology.TorusSpec{Dims: dims, HostsPerSwitch: hosts}
		if spec.Validate() != nil || spec.NumSwitches() > 300 || hosts > 4 {
			t.Skip("outside the fuzz envelope")
		}
		topo, err := topology.GenerateTorus(spec)
		if err != nil {
			t.Fatalf("feasible spec %v rejected: %v", spec, err)
		}
		wantDeg := 0
		for _, d := range dims {
			if d == 2 {
				wantDeg++ // mesh and wrap edge are the same cable
			} else {
				wantDeg += 2
			}
		}
		for id := 0; id < topo.NumSwitches; id++ {
			if got := topo.Degree(id); got != wantDeg {
				t.Fatalf("switch %s degree %d, want %d", spec.Name(id), got, wantDeg)
			}
			if got := topo.HostCount(id); got != hosts {
				t.Fatalf("switch %s has %d hosts, want %d", spec.Name(id), got, hosts)
			}
		}
		checkFamily(t, topo, routing.TorusBuilder(spec), "torus")
	})
}
