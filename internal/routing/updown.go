// Package routing computes the routing functions the paper evaluates:
// the deterministic up*/down* algorithm (used both standalone and as
// the FA escape path) and the minimal adaptive option sets of the
// Fully Adaptive (FA) algorithm, all expressed as destination-indexed
// next-hop information suitable for IBA forwarding tables. It also
// provides a channel-dependency-graph cycle checker used to verify
// deadlock freedom of generated routings.
package routing

import (
	"cmp"
	"fmt"
	"slices"

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

	// order lists every switch by ascending (level, id), the order in
	// which the tables' climb phase resolves switches; sorted once, by
	// NewUpDownRooted.
	order []int
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
	order := make([]int, t.NumSwitches)
	for s := range order {
		order[s] = s
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(level[a], level[b]), cmp.Compare(a, b))
	})
	return &UpDown{Topo: t, Root: root, Level: level, order: order}, nil
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
	next, dist := unrouted(n) // dist is the table-path length from s to d
	// One destination's column is computed into row buffers, then
	// transposed into the tables; the buffers and the BFS queue are
	// reused across destinations.
	nbrs := u.rotated(variant)
	nd, dd := make([]int, n), make([]int, n)
	queue := make([]int, 0, n)
	for d := 0; d < n; d++ {
		queue = u.tablesFor(d, nbrs, nd, dd, queue)
		for s := 0; s < n; s++ {
			next[s][d] = nd[s]
			dist[s][d] = dd[s]
		}
	}
	return &Deterministic{Topo: u.Topo, UD: u, NextHop: next, PathLen: dist}
}

// rotated returns every switch's neighbours in the order variant v
// explores them, the tie-breaking knob of TablesVariant: switch s's k
// sorted neighbours rotated to start at position (v+s) mod k. Rotating
// by the switch ID as well decorrelates choices across switches.
// Variant 0 is the sorted adjacency itself.
func (u *UpDown) rotated(variant int) [][]int {
	adj := u.Topo.Adjacency()
	if variant == 0 {
		return adj
	}
	out := make([][]int, len(adj))
	flat := make([]int, 0, 2*len(u.Topo.Links))
	for s, ns := range adj {
		start := len(flat)
		k := 0
		if len(ns) >= 2 {
			k = (variant + s) % len(ns)
		}
		flat = append(append(flat, ns[k:]...), ns[:k]...)
		out[s] = flat[start:len(flat):len(flat)]
	}
	return out
}

// tablesFor computes next hops and table-path lengths toward a single
// destination switch d into next and dist, exploring neighbours in
// nbrs order and using queue's storage for the BFS, and returns the
// queue for reuse.
func (u *UpDown) tablesFor(d int, nbrs [][]int, next, dist, queue []int) []int {
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
	queue = append(queue[:0], d)
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, y := range nbrs[x] {
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
	for _, s := range u.order {
		if dist[s] != -1 || s == d {
			continue // descend-set assignments are final
		}
		for _, m := range nbrs[s] {
			if !u.IsUp(s, m) || dist[m] == -1 {
				continue
			}
			if cand := dist[m] + 1; dist[s] == -1 || cand < dist[s] {
				dist[s] = cand
				next[s] = m
			}
		}
	}
	return queue
}
