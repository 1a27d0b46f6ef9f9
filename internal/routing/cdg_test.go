package routing

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"ibasim/internal/sim"
	"ibasim/internal/topology"
)

func TestEscapeCDGAcyclicPaperSizes(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		for _, k := range []int{4, 6} {
			top := irregular(t, n, k, uint64(n*k))
			det := mustUD(t, top).Tables()
			if err := VerifyDeadlockFree(det); err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
		}
	}
}

// cdgOf builds a CDG over channels 0..channels-1 from successor lists,
// keeping each list's order.
func cdgOf(channels int, dep map[int][]int) CDG {
	g := CDG{off: make([]int32, channels+1)}
	for c := 0; c < channels; c++ {
		g.off[c] = int32(len(g.succ))
		for _, x := range dep[c] {
			g.succ = append(g.succ, int32(x))
		}
	}
	g.off[channels] = int32(len(g.succ))
	return g
}

// findCycleRecursive is the map-based recursive search FindCycle
// replaced, kept as its oracle: starts in ascending channel order,
// successors in list order.
func findCycleRecursive(dep map[int][]int) []int {
	color := map[int]int{}
	parent := map[int]int{}
	start, end := -1, -1
	var dfs func(c int) bool
	dfs = func(c int) bool {
		color[c] = 1
		for _, nxt := range dep[c] {
			switch color[nxt] {
			case 0:
				parent[nxt] = c
				if dfs(nxt) {
					return true
				}
			case 1:
				start, end = nxt, c
				return true
			}
		}
		color[c] = 2
		return false
	}
	starts := make([]int, 0, len(dep))
	for c := range dep {
		starts = append(starts, c)
	}
	sort.Ints(starts)
	for _, c := range starts {
		if color[c] == 0 && dfs(c) {
			cycle := []int{start}
			for v := end; v != start; v = parent[v] {
				cycle = append(cycle, v)
			}
			cycle = append(cycle, start)
			for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
				cycle[i], cycle[j] = cycle[j], cycle[i]
			}
			return cycle
		}
	}
	return nil
}

// TestFindCycleMatchesRecursiveReference: the iterative search over the
// compressed graph reports exactly the cycle the recursive map-based
// search reports, on random graphs with unsorted, repeating successor
// lists (the shape of a multipath union) and on acyclic ones.
func TestFindCycleMatchesRecursiveReference(t *testing.T) {
	f := func(seed uint64, channelsRaw, edgesRaw uint8, dag bool) bool {
		rng := sim.NewRNG(seed)
		channels := 2 + int(channelsRaw)%40
		dep := map[int][]int{}
		for e := 0; e < int(edgesRaw)%120; e++ {
			a, b := rng.Intn(channels), rng.Intn(channels)
			if dag && a >= b {
				continue
			}
			dep[a] = append(dep[a], b)
		}
		got, want := FindCycle(cdgOf(channels, dep)), findCycleRecursive(dep)
		if !slices.Equal(got, want) {
			t.Logf("seed %d: got %v, want %v", seed, got, want)
			return false
		}
		return !dag || got == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFindCycleDetectsKnownCycle(t *testing.T) {
	dep := map[int][]int{1: {2}, 2: {3}, 3: {1}}
	cycle := FindCycle(cdgOf(4, dep))
	if cycle == nil {
		t.Fatal("missed a 3-cycle")
	}
	if cycle[0] != cycle[len(cycle)-1] {
		t.Fatalf("cycle %v does not close", cycle)
	}
	if len(cycle) != 4 {
		t.Fatalf("cycle %v has wrong length", cycle)
	}
	// Each consecutive pair must be a real edge.
	for i := 0; i+1 < len(cycle); i++ {
		found := false
		for _, n := range dep[cycle[i]] {
			if n == cycle[i+1] {
				found = true
			}
		}
		if !found {
			t.Fatalf("cycle %v uses non-edge %d->%d", cycle, cycle[i], cycle[i+1])
		}
	}
}

func TestFindCycleAcyclicGraph(t *testing.T) {
	dep := map[int][]int{1: {2, 3}, 2: {4}, 3: {4}, 4: nil}
	if c := FindCycle(cdgOf(5, dep)); c != nil {
		t.Fatalf("false cycle %v in a DAG", c)
	}
}

func TestFindCycleSelfLoop(t *testing.T) {
	dep := map[int][]int{7: {7}}
	if c := FindCycle(cdgOf(8, dep)); c == nil {
		t.Fatal("missed self-loop")
	}
}

// TestFindCycleDeterministic: the cycle reported for a cyclic CDG
// must not depend on map iteration order. First-minimal-hop tables on
// an irregular 16-switch network carry cyclic dependencies; twenty
// builds and searches must name one cycle.
func TestFindCycleDeterministic(t *testing.T) {
	top := irregular(t, 16, 4, 1)
	fa := NewFA(mustUD(t, top).Tables())
	n := top.NumSwitches
	firstMinimal := func(s, d int) (int, bool) {
		if opts := fa.Options(s, d, 1); len(opts) > 0 {
			return opts[0], true
		}
		return 0, false
	}
	var want string
	for i := 0; i < 20; i++ {
		cycle := FindCycle(CDGFromNextHops(n, n, firstMinimal))
		if cycle == nil {
			t.Fatal("first-minimal-hop tables gave an acyclic CDG")
		}
		got := FormatCycle(cycle, n)
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("call %d reported%s, call 0%s", i, got, want)
		}
	}
}

func TestFindCycleEmpty(t *testing.T) {
	if c := FindCycle(CDG{}); c != nil {
		t.Fatalf("cycle %v in empty graph", c)
	}
	if c := FindCycle(cdgOf(4, nil)); c != nil {
		t.Fatalf("cycle %v in empty graph", c)
	}
}

func TestEscapeCDGCoversUsedChannels(t *testing.T) {
	// Every multi-hop route contributes its first channel's dependency.
	top := irregular(t, 16, 4, 31)
	det := mustUD(t, top).Tables()
	dep := EscapeCDG(det)
	n := top.NumSwitches
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			m := det.NextHop[s][d]
			if m == d {
				continue
			}
			c1 := ChannelID(s, m, n)
			c2 := ChannelID(m, det.NextHop[m][d], n)
			found := false
			for _, c := range dep.Successors(c1) {
				if int(c) == c2 {
					found = true
				}
			}
			if !found {
				t.Fatalf("dependency (%d->%d)->(%d->%d) missing", s, m, m, det.NextHop[m][d])
			}
		}
	}
}

// TestDeadlockFreedomProperty is the paper's §3 deadlock-freedom claim
// checked mechanically across random topologies: the escape network's
// channel dependency graph is always acyclic.
func TestDeadlockFreedomProperty(t *testing.T) {
	f := func(seed uint64, dense bool) bool {
		k := 4
		if dense {
			k = 6
		}
		top, err := topology.GenerateIrregular(topology.IrregularSpec{
			NumSwitches: 16, HostsPerSwitch: 4, InterSwitch: k, Seed: seed,
		})
		if err != nil {
			return false
		}
		det := mustUD(t, top).Tables()
		return VerifyDeadlockFree(det) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTables64(b *testing.B) {
	top := irregular(b, 64, 4, 1)
	ud := mustUD(b, top)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ud.Tables()
	}
}

func BenchmarkNewFA64(b *testing.B) {
	top := irregular(b, 64, 4, 1)
	det := mustUD(b, top).Tables()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewFA(det)
	}
}
