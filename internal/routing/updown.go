// Package routing computes the routing functions the paper evaluates:
// the deterministic up*/down* algorithm (used both standalone and as
// the FA escape path) and the minimal adaptive option sets of the
// Fully Adaptive (FA) algorithm, all expressed as destination-indexed
// next-hop information suitable for IBA forwarding tables. It also
// provides a channel-dependency-graph cycle checker used to verify
// deadlock freedom of generated routings.
package routing

import (
	"fmt"

	"ibasim/internal/topology"
)

// UpDown holds the spanning-tree structure and link orientation of the
// up*/down* routing algorithm for one topology. A link's "up" end is
// the end closer to the root of a BFS spanning tree (ties broken by
// lower switch ID), exactly as in the Autonet scheme the paper cites.
type UpDown struct {
	Topo  *topology.Topology
	Root  int
	Level []int // BFS level of each switch (root = 0)
}

// NewUpDown builds the up*/down* structure rooted at the switch with
// the highest inter-switch degree (ties broken by lowest ID), a common
// heuristic that keeps tree depth low; the paper does not prescribe a
// root-selection rule.
func NewUpDown(t *topology.Topology) (*UpDown, error) {
	if !t.Connected() {
		return nil, fmt.Errorf("routing: up*/down* requires a connected topology")
	}
	root := 0
	for s := 1; s < t.NumSwitches; s++ {
		if t.Degree(s) > t.Degree(root) {
			root = s
		}
	}
	return NewUpDownRooted(t, root)
}

// NewUpDownRooted builds the up*/down* structure with an explicit root.
func NewUpDownRooted(t *topology.Topology, root int) (*UpDown, error) {
	if root < 0 || root >= t.NumSwitches {
		return nil, fmt.Errorf("routing: root %d out of range", root)
	}
	if !t.Connected() {
		return nil, fmt.Errorf("routing: up*/down* requires a connected topology")
	}
	level := t.Distances(root)
	return &UpDown{Topo: t, Root: root, Level: level}, nil
}

// IsUp reports whether traversing from switch `from` to adjacent
// switch `to` is an "up" move (toward the root). Direction is total:
// every link has exactly one up end.
func (u *UpDown) IsUp(from, to int) bool {
	if u.Level[to] != u.Level[from] {
		return u.Level[to] < u.Level[from]
	}
	// Same BFS level: lower ID is the up end (arbitrary but fixed).
	return to < from
}

// Tables computes the destination-indexed deterministic next hops:
// NextHop[s][d] is the neighbour switch to which switch s forwards a
// packet destined to (a host on) switch d, or -1 when s == d.
//
// IBA forwarding tables are indexed by destination only, so the next
// hop cannot depend on how a packet arrived; the table path from every
// source through these next hops must itself be a legal up*/down* path
// (up moves, then down moves). The construction is the conservative
// closed-descend-set one:
//
//   - every switch with an all-down path to d descends along a
//     shortest all-down path (the descend set is closed under these
//     next hops, so a packet that starts descending keeps descending);
//   - every other switch climbs via the up-link that minimizes the
//     total table-path length.
//
// Legality and deadlock freedom are immediate; the cost is occasional
// non-minimality, which is the documented weakness of up*/down* that
// the paper's adaptive mechanism exploits.
func (u *UpDown) Tables() *Deterministic { return u.TablesVariant(0) }

// TablesVariant computes an alternative deterministic routing: variant
// v breaks ties among equal-length legal paths differently (neighbour
// exploration order is rotated by v), yielding distinct
// destination-indexed tables that are all legal up*/down* on the same
// link orientation. Because every variant's paths conform to the same
// up*/down* relation, any mixture of variants — the source-selected
// multipath scheme the paper's introduction discusses — remains
// deadlock-free (VerifyDeadlockFreeAll checks the union CDG
// mechanically).
func (u *UpDown) TablesVariant(variant int) *Deterministic {
	n := u.Topo.NumSwitches
	next := make([][]int, n)
	dist := make([][]int, n) // table-path length from s to d
	for s := range next {
		next[s] = make([]int, n)
		dist[s] = make([]int, n)
	}
	for d := 0; d < n; d++ {
		nd, dd := u.tablesFor(d, variant)
		for s := 0; s < n; s++ {
			next[s][d] = nd[s]
			dist[s][d] = dd[s]
		}
	}
	return &Deterministic{Topo: u.Topo, UD: u, NextHop: next, PathLen: dist}
}

// rotated returns s's neighbours rotated by the variant, the
// tie-breaking knob of TablesVariant. Rotating by the switch ID as
// well decorrelates choices across switches.
func (u *UpDown) rotated(s, variant int) []int {
	ns := u.Topo.Neighbors(s)
	if variant == 0 || len(ns) < 2 {
		return ns
	}
	k := (variant + s) % len(ns)
	out := make([]int, 0, len(ns))
	out = append(out, ns[k:]...)
	out = append(out, ns[:k]...)
	return out
}

// tablesFor computes next hops and table-path lengths toward a single
// destination switch d.
func (u *UpDown) tablesFor(d, variant int) (next, dist []int) {
	n := u.Topo.NumSwitches
	next = make([]int, n)
	dist = make([]int, n)
	for i := range next {
		next[i] = -1
		dist[i] = -1
	}
	dist[d] = 0

	// Phase 1: all-down distances to d via reverse BFS over up moves.
	// Moving from s down to m means m -> s is an up move; so explore
	// from d along edges (x -> y) where y sees x as a down neighbour,
	// i.e. x is up of y... concretely: y can take a down step to x iff
	// IsUp(x, y) (y is the up end means x->y is up, so y->x is down).
	queue := []int{d}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range u.rotated(x, variant) {
			// y -> x is a down move iff x is NOT up of... a move y->x
			// is down iff IsUp(y, x) is false for direction from y to
			// x: IsUp(y, x) true means x is toward root. Down means
			// x is away from root: !IsUp(y, x).
			if !u.IsUp(y, x) && dist[y] == -1 {
				dist[y] = dist[x] + 1
				next[y] = x
				queue = append(queue, y)
			}
		}
	}

	// Phase 2: switches without an all-down path (dist still -1) climb
	// via an up-link. Up moves strictly decrease the (level, id) key,
	// so processing switches in ascending (level, id) order computes
	// each climber after all its up-neighbours; every climb chain ends
	// in the descend set because the root always belongs to it (the
	// root reaches every switch by reversing BFS-parent up-paths).
	order := make([]int, 0, n)
	for s := 0; s < n; s++ {
		order = append(order, s)
	}
	// Sort by (level, id) ascending; insertion sort keeps this
	// dependency-free and n is small (<= 64 in the paper's configs).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if u.Level[a] < u.Level[b] || (u.Level[a] == u.Level[b] && a < b) {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	for _, s := range order {
		if dist[s] != -1 || s == d {
			continue // descend-set assignments are final
		}
		for _, m := range u.rotated(s, variant) {
			if !u.IsUp(s, m) || dist[m] == -1 {
				continue
			}
			if cand := dist[m] + 1; dist[s] == -1 || cand < dist[s] {
				dist[s] = cand
				next[s] = m
			}
		}
	}
	return next, dist
}
