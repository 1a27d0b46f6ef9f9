package routing

import (
	"fmt"
	"slices"
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

// CDG is a channel dependency graph in compressed adjacency form over
// the n*n ChannelIDs of an n-switch topology: the channels a packet
// holding channel c may request next are succ[off[c]:off[c+1]].
type CDG struct {
	off  []int32
	succ []int32
}

// Successors returns the channels a packet holding channel c may
// request next, in the order FindCycle follows them. The slice is the
// graph's own; callers must not modify it.
func (g CDG) Successors(c int) []int32 { return g.succ[g.off[c]:g.off[c+1]] }

// CDGFromNextHops builds a channel dependency graph from an arbitrary
// next-hop relation: for every destination d in [0, numDests) and
// switch s, next(s, d) returns the next switch on the escape path
// toward d, with ok=false when s does not forward d further (s is the
// destination's switch, or has no route). A packet holding channel
// (s, m) that must travel on to x induces the dependency
// (s→m) → (m→x). The runtime auditor uses this against the LIVE
// forwarding tables (destinations are hosts, next hops read from the
// programmed escape slots); EscapeCDG uses it against a computed
// up*/down* routing (destinations are switches). next is called once
// per (switch, destination) pair. Each successor list is sorted and
// free of duplicates, so FindCycle's result depends only on the
// relation.
func CDGFromNextHops(numSwitches, numDests int, next func(s, d int) (int, bool)) CDG {
	n := numSwitches
	// hop[d*n+s] is s's next switch toward d, or -1.
	hop := make([]int32, numDests*n)
	for d := 0; d < numDests; d++ {
		for s := 0; s < n; s++ {
			hop[d*n+s] = -1
			if m, ok := next(s, d); ok && m >= 0 && m < n {
				hop[d*n+s] = int32(m)
			}
		}
	}
	// Count each channel's dependencies, turn the counts into list
	// starts, then place every dependency, advancing off[c] as the
	// cursor of channel c's list; shifting off right by one afterwards
	// restores the starts.
	channels := n * n
	off := make([]int32, channels+1)
	edges := 0
	for d := 0; d < numDests; d++ {
		row := hop[d*n : (d+1)*n]
		for s, m := range row {
			if m >= 0 && row[m] >= 0 {
				off[ChannelID(s, int(m), n)]++
				edges++
			}
		}
	}
	var sum int32
	for c, k := range off[:channels] {
		off[c] = sum
		sum += k
	}
	succ := make([]int32, edges)
	for d := 0; d < numDests; d++ {
		row := hop[d*n : (d+1)*n]
		for s, m := range row {
			if m >= 0 && row[m] >= 0 {
				c1 := ChannelID(s, int(m), n)
				succ[off[c1]] = int32(ChannelID(int(m), int(row[m]), n))
				off[c1]++
			}
		}
	}
	copy(off[1:], off[:channels])
	off[0] = 0
	// Sort each short list and drop repeats (many destinations share a
	// dependency), compacting the lists toward the front.
	var w, start int32
	for c := 0; c < channels; c++ {
		end := off[c+1]
		list := succ[start:end]
		slices.Sort(list)
		off[c] = w
		first := w
		for _, x := range list {
			if w == first || x != succ[w-1] {
				succ[w] = x
				w++
			}
		}
		start = end
	}
	off[channels] = w
	return CDG{off: off, succ: succ[:w:w]}
}

// EscapeCDG builds the dependency graph of the escape network: the
// successors of c1 are the channels some packet can request while
// holding c1. Destinations are the host-bearing switches — the only
// switches forwarding tables hold routes to (families like the
// fat-tree leave host-less spine switches without destination
// entries).
func EscapeCDG(det *Deterministic) CDG {
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
// sequence (first == last), or nil if the graph is acyclic. The
// depth-first search starts from channels in ascending ID and follows
// successors in list order, so one graph always yields the same cycle.
func FindCycle(g CDG) []int {
	const (
		white = 0 // unvisited
		gray  = 1 // on stack
		black = 2 // done
	)
	channels := len(g.off) - 1
	if channels <= 0 {
		return nil
	}
	color := make([]uint8, channels)
	parent := make([]int32, channels)
	// frame is one channel on the search path and the position of the
	// next successor to try.
	type frame struct{ c, i int32 }
	var stack []frame
	for c := 0; c < channels; c++ {
		if color[c] != white || g.off[c] == g.off[c+1] {
			continue
		}
		color[c] = gray
		stack = append(stack[:0], frame{int32(c), g.off[c]})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.i == g.off[top.c+1] {
				color[top.c] = black
				stack = stack[:len(stack)-1]
				continue
			}
			nxt := g.succ[top.i]
			top.i++
			switch color[nxt] {
			case white:
				parent[nxt] = top.c
				color[nxt] = gray
				stack = append(stack, frame{nxt, g.off[nxt]})
			case gray:
				// Reconstruct the cycle by walking parents back from
				// top.c to nxt, then reverse it into forward order.
				cycle := []int{int(nxt)}
				for v := top.c; v != nxt; v = parent[v] {
					cycle = append(cycle, int(v))
				}
				cycle = append(cycle, int(nxt))
				slices.Reverse(cycle)
				return cycle
			}
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
	// For every channel the union concatenates the routings' successor
	// lists in the order of dets, unsorted: FindCycle follows that
	// order, so which cycle a cyclic union reports depends on it.
	cdgs := make([]CDG, len(dets))
	edges := 0
	for i, det := range dets {
		cdgs[i] = EscapeCDG(det)
		edges += len(cdgs[i].succ)
	}
	union := cdgs[0]
	if len(cdgs) > 1 {
		channels := len(union.off) - 1
		union = CDG{off: make([]int32, channels+1), succ: make([]int32, 0, edges)}
		for c := 0; c < channels; c++ {
			union.off[c] = int32(len(union.succ))
			for _, g := range cdgs {
				union.succ = append(union.succ, g.Successors(c)...)
			}
		}
		union.off[channels] = int32(len(union.succ))
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
