package routing

import (
	"fmt"

	"ibasim/internal/topology"
)

// This file implements the fat-tree family: D-mod-K deterministic
// escape routing over a k-ary n-tree (the scheme the related work
// evaluates on structured HPC fabrics). Write a switch as (level l,
// within-level position w) with w's base-k digits w_0..w_{n-2}; hosts
// attach only to the level-0 leaves, so tables route exclusively to
// leaf destinations.
//
// Toward the leaf at position v:
//
//   - a switch whose digits agree with v at every position >= l has an
//     all-down path: the unique minimal descent rewrites digit l-1 to
//     v_{l-1} one level per hop (l hops total);
//   - every other switch ascends, and D-mod-K picks the up-neighbour
//     that sets digit l to v_l — the ascent choice is a pure function
//     of the destination, which is what spreads distinct destinations
//     across distinct roots and keeps the tables destination-indexed.
//
// The turning level is L = 1 + (highest digit position where w and v
// disagree): digit i can only be rewritten crossing level i+1, so every
// path must climb to at least L, and ours climbs exactly to L. Path
// length is therefore (L-l) + L, the graph distance — D-mod-K escape
// paths are minimal, so the escape hop always appears among the minimal
// adaptive options (MinimalEscape is true; the conformance suite
// asserts both).
//
// Deadlock freedom: every table path is up moves then down moves on the
// level orientation, so escape channel dependencies go up-up, up-down,
// or down-down, never down-up; levels strictly increase along up
// channels and strictly decrease along down channels, hence the escape
// CDG is acyclic. Verify re-checks this mechanically.

// NewFatTreeTables computes the D-mod-K destination-indexed tables for
// a pristine k-ary n-tree. Destinations without hosts (levels >= 1)
// get no entries (NextHop -1), mirroring forwarding tables that are
// indexed by host LIDs only.
func NewFatTreeTables(t *topology.Topology, spec topology.FatTreeSpec) (*Deterministic, error) {
	if !topology.MatchesFatTree(t, spec) {
		return nil, fmt.Errorf("routing: topology is not the pristine fat-tree %s", spec)
	}
	n := t.NumSwitches
	next, dist := unrouted(n)
	for d := 0; d < n; d++ {
		if spec.SwitchLevel(d) != 0 {
			continue // host-less spine switch: no destination entries
		}
		for s := 0; s < n; s++ {
			if s == d {
				dist[s][d] = 0
				continue
			}
			l := spec.SwitchLevel(s)
			w := spec.SwitchPos(s)
			// Highest digit position where s's and d's positions differ.
			hi := -1
			for i := spec.Levels - 2; i >= 0; i-- {
				if spec.Digit(s, i) != spec.Digit(d, i) {
					hi = i
					break
				}
			}
			if hi < l {
				// Digits >= l agree: descend, fixing digit l-1.
				down := spec.SetDigit(w, l-1, spec.Digit(d, l-1))
				next[s][d] = spec.SwitchID(l-1, down)
				dist[s][d] = l
			} else {
				// Ascend; D-mod-K sets digit l to the destination's.
				up := spec.SetDigit(w, l, spec.Digit(d, l))
				next[s][d] = spec.SwitchID(l+1, up)
				turn := hi + 1
				dist[s][d] = (turn - l) + turn
			}
		}
	}
	return &Deterministic{Topo: t, NextHop: next, PathLen: dist}, nil
}

// FatTreeBuilder returns the fat-tree family builder. On the pristine
// fabric it installs D-mod-K escape tables with the full minimal
// adaptive option sets (all k upward paths below the turning level).
// On a degraded fabric — fault campaigns knock links out — the regular
// structure D-mod-K depends on is gone, so the builder falls back to
// up*/down* on the surviving graph, exactly like the irregular family.
func FatTreeBuilder(spec topology.FatTreeSpec) Builder {
	return func(t *topology.Topology) (*Engine, error) {
		if !topology.MatchesFatTree(t, spec) {
			return UpDownBuilder(-1)(t)
		}
		det, err := NewFatTreeTables(t, spec)
		if err != nil {
			return nil, err
		}
		return &Engine{Name: "fattree", Deterministic: det, Adaptive: NewFA(det), MinimalEscape: true}, nil
	}
}
