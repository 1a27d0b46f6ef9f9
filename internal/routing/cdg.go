package routing

import (
	"fmt"
	"sort"
)

// This file implements the channel dependency graph (CDG) analysis
// used to verify deadlock freedom. Following Duato's theory (which §3
// of the paper invokes), the FA routing is deadlock-free iff its
// escape sub-network is: packets blocked on adaptive queues can always
// select the escape option, and the escape network — the up*/down*
// routing on escape queues — must have an acyclic channel dependency
// graph.
//
// A channel here is a directed inter-switch link (a -> b). The escape
// routing induces a dependency c1 -> c2 when some packet held by c1
// may request c2 next, i.e. when the deterministic tables route some
// destination over c1 = (s, m) and then c2 = (m, x).

// ChannelID encodes the directed link a->b of an n-switch topology as
// a single integer. FindCycle results over CDGs built with it decode
// with (c/n, c%n); FormatCycle renders them.
func ChannelID(a, b, n int) int { return a*n + b }

// CDGFromNextHops builds a channel dependency graph from an arbitrary
// next-hop relation: for every destination d in [0, numDests) and
// switch s, next(s, d) returns the next switch on the escape path
// toward d, with ok=false when s does not forward d further (s is the
// destination's switch, or has no route). A packet holding channel
// (s, m) that must travel on to x induces the dependency
// (s→m) → (m→x). The runtime auditor uses this against the LIVE
// forwarding tables (destinations are hosts, next hops read from the
// programmed escape slots); EscapeCDG uses it against a computed
// up*/down* routing (destinations are switches). Each successor list
// is sorted, so FindCycle's result does not depend on map order.
func CDGFromNextHops(numSwitches, numDests int, next func(s, d int) (int, bool)) map[int][]int {
	depSet := make(map[int]map[int]bool)
	for d := 0; d < numDests; d++ {
		for s := 0; s < numSwitches; s++ {
			m, ok := next(s, d)
			if !ok {
				continue
			}
			x, ok := next(m, d)
			if !ok {
				continue // delivered at m, no further channel needed
			}
			c1 := ChannelID(s, m, numSwitches)
			c2 := ChannelID(m, x, numSwitches)
			if depSet[c1] == nil {
				depSet[c1] = make(map[int]bool)
			}
			depSet[c1][c2] = true
		}
	}
	dep := make(map[int][]int, len(depSet))
	for c, set := range depSet {
		for c2 := range set {
			dep[c] = append(dep[c], c2)
		}
		sort.Ints(dep[c])
	}
	return dep
}

// EscapeCDG builds the dependency adjacency of the escape network:
// dep[c1] lists the channels some packet can request while holding c1.
// Destinations are the host-bearing switches — the only switches
// forwarding tables hold routes to (families like the fat-tree leave
// host-less spine switches without destination entries).
func EscapeCDG(det *Deterministic) map[int][]int {
	n := det.Topo.NumSwitches
	return CDGFromNextHops(n, n, func(s, d int) (int, bool) {
		if s == d || !det.Routes(d) {
			return 0, false
		}
		hop := det.NextHop[s][d]
		if hop < 0 {
			return 0, false
		}
		return hop, true
	})
}

// FindCycle returns a cycle in the dependency graph as a channel-ID
// sequence (first == last), or nil if the graph is acyclic. The search
// starts from channels in ascending ID and follows successors in list
// order, so one graph always yields the same cycle.
func FindCycle(dep map[int][]int) []int {
	const (
		white = 0 // unvisited
		gray  = 1 // on stack
		black = 2 // done
	)
	color := make(map[int]int)
	parent := make(map[int]int)
	var cycleStart, cycleEnd = -1, -1

	var dfs func(c int) bool
	dfs = func(c int) bool {
		color[c] = gray
		for _, nxt := range dep[c] {
			switch color[nxt] {
			case white:
				parent[nxt] = c
				if dfs(nxt) {
					return true
				}
			case gray:
				cycleStart, cycleEnd = nxt, c
				return true
			}
		}
		color[c] = black
		return false
	}
	starts := make([]int, 0, len(dep))
	for c := range dep {
		starts = append(starts, c)
	}
	sort.Ints(starts)
	for _, c := range starts {
		if color[c] == white && dfs(c) {
			// Reconstruct the cycle by walking parents back from
			// cycleEnd to cycleStart.
			cycle := []int{cycleStart}
			for v := cycleEnd; v != cycleStart; v = parent[v] {
				cycle = append(cycle, v)
			}
			cycle = append(cycle, cycleStart)
			// Reverse into forward order.
			for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
				cycle[i], cycle[j] = cycle[j], cycle[i]
			}
			return cycle
		}
	}
	return nil
}

// VerifyDeadlockFree asserts that the escape network's CDG is acyclic
// and returns a descriptive error naming the offending cycle if not.
func VerifyDeadlockFree(det *Deterministic) error {
	return VerifyDeadlockFreeAll([]*Deterministic{det})
}

// VerifyDeadlockFreeAll checks the union channel dependency graph of
// several deterministic routings sharing one network — the situation
// of source-selected multipath, where every packet follows one of the
// routings end to end. The union must be acyclic for the mixture to
// be deadlock-free.
func VerifyDeadlockFreeAll(dets []*Deterministic) error {
	if len(dets) == 0 {
		return nil
	}
	union := make(map[int][]int)
	for _, det := range dets {
		for c, deps := range EscapeCDG(det) {
			union[c] = append(union[c], deps...)
		}
	}
	cycle := FindCycle(union)
	if cycle == nil {
		return nil
	}
	topo := dets[0].Topo
	return fmt.Errorf("routing: escape CDG cycle:%s", FormatCycleNamed(cycle, topo.NumSwitches, topo.NodeName))
}

// FormatCycle renders a FindCycle result over ChannelID-encoded
// channels as " (a->b) (b->c) ..." for diagnostics.
func FormatCycle(cycle []int, n int) string {
	return FormatCycleNamed(cycle, n, nil)
}

// FormatCycleNamed renders a cycle with family-aware channel labels:
// name maps a switch ID to its display label (tree level/position,
// torus coordinates — topology.Topology.NodeName). A nil name falls
// back to bare switch IDs.
func FormatCycleNamed(cycle []int, n int, name func(int) string) string {
	if name == nil {
		name = func(s int) string { return fmt.Sprintf("%d", s) }
	}
	out := ""
	for _, c := range cycle {
		out += fmt.Sprintf(" (%s->%s)", name(c/n), name(c%n))
	}
	return out
}
