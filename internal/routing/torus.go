package routing

import (
	"fmt"

	"ibasim/internal/topology"
)

// This file implements the torus family: dimension-order escape
// routing restricted to the MESH links, with the wraparound links left
// to the adaptive options (the deadlock-avoidance structure the
// OutFlank line of related work builds on).
//
// Escape tables correct dimension 0 first, then 1, then 2, always
// stepping toward the destination coordinate without crossing a wrap
// boundary. Dependencies between escape channels therefore only go
// from lower-dimension channels to equal-or-higher-dimension channels,
// and within one dimension every channel chain moves monotonically in
// one direction along an open (wrap-free) path — the classic argument
// that dimension-order routing on a mesh has an acyclic CDG. Verify()
// re-checks it mechanically.
//
// Adaptive options come from NewFA over the FULL wrapped graph, so they
// use wrap links freely and can be shorter than the escape path
// (MinimalEscape is false: mesh DOR is minimal on the mesh, not on
// the torus). Duato's theory does not care: packets blocked on cyclic
// adaptive channels always have the acyclic escape path to drain into.

// NewTorusTables computes the mesh-restricted dimension-order tables
// for a pristine torus. PathLen is the mesh distance (sum of
// coordinate deltas without wrap).
func NewTorusTables(t *topology.Topology, spec topology.TorusSpec) (*Deterministic, error) {
	if !topology.MatchesTorus(t, spec) {
		return nil, fmt.Errorf("routing: topology is not the pristine torus %s", spec)
	}
	n := t.NumSwitches
	next, dist := unrouted(n)
	for d := 0; d < n; d++ {
		cd := spec.Coord(d)
		for s := 0; s < n; s++ {
			if s == d {
				dist[s][d] = 0
				continue
			}
			cs := spec.Coord(s)
			sum := 0
			for i := range cs {
				delta := cs[i] - cd[i]
				if delta < 0 {
					delta = -delta
				}
				sum += delta
			}
			dist[s][d] = sum
			for i := range cs {
				if cs[i] == cd[i] {
					continue
				}
				nc := make([]int, len(cs))
				copy(nc, cs)
				if cd[i] > cs[i] {
					nc[i]++
				} else {
					nc[i]--
				}
				next[s][d] = spec.SwitchID(nc)
				break
			}
		}
	}
	return &Deterministic{Topo: t, NextHop: next, PathLen: dist}, nil
}

// TorusBuilder returns the torus family builder: mesh-restricted
// dimension-order escape plus wrapped-minimal adaptive options on the
// pristine fabric, falling back to up*/down* on the surviving graph
// once faults break the regular structure. Only spec.Dims matter; host
// attachment is taken from the topology being configured.
func TorusBuilder(spec topology.TorusSpec) Builder {
	return func(t *topology.Topology) (*Engine, error) {
		spec := spec
		spec.HostsPerSwitch = t.HostsPerSwitch
		if !topology.MatchesTorus(t, spec) {
			return UpDownBuilder(-1)(t)
		}
		det, err := NewTorusTables(t, spec)
		if err != nil {
			return nil, err
		}
		return &Engine{Name: "torus", Deterministic: det, Adaptive: NewFA(det)}, nil
	}
}
