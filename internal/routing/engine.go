package routing

import "ibasim/internal/topology"

// Engine is one routing-function family built for one topology:
// everything the subnet manager needs to program forwarding tables and
// everything the analysis/verification layers need to reason about the
// result. Builders fill it once; nothing changes it afterwards.
//
// The contract (also documented in DESIGN.md):
//
//   - Deterministic is the escape routing: destination-indexed next
//     hops stored at the first LID of every destination's address
//     range. Its escape CDG must be acyclic (Verify enforces it); by
//     Duato's theory that alone makes the full adaptive function
//     deadlock-free, no matter how cyclic the adaptive options are.
//   - Adaptive supplies the minimal adaptive option sets programmed
//     into the remaining LID slots.
//   - MinimalEscape reports whether the family guarantees its escape
//     paths are minimal (fat-tree D-mod-K: yes; up*/down* and
//     mesh-restricted torus DOR: no). The conformance suite keys the
//     minimality assertions off it.
type Engine struct {
	// Name tags the family for reports ("updown", "fattree", "torus").
	Name          string
	Deterministic *Deterministic
	Adaptive      *FA
	MinimalEscape bool
}

// Verify runs the family's deadlock-freedom check: for every current
// family the mechanical escape-CDG acyclicity test.
func (e *Engine) Verify() error { return VerifyDeadlockFree(e.Deterministic) }

// Builder constructs a family's Engine for one discovered topology.
// The subnet manager calls it at configuration time and again after
// every reconfiguration; builders for structured families detect a
// degraded fabric (failed links) and fall back to up*/down* on the
// surviving graph, which is how fault campaigns run unchanged on every
// family.
type Builder func(t *topology.Topology) (*Engine, error)

// unrouted returns n×n next-hop and path-length tables with every
// entry -1, for a family to fill. Both tables' rows are carved from one
// backing array.
func unrouted(n int) (next, dist [][]int) {
	flat := make([]int, 2*n*n)
	for i := range flat {
		flat[i] = -1
	}
	next, dist = make([][]int, n), make([][]int, n)
	for s := range next {
		next[s] = flat[s*n : (s+1)*n : (s+1)*n]
		dist[s] = flat[(n+s)*n : (n+s+1)*n : (n+s+1)*n]
	}
	return next, dist
}

// UpDownBuilder returns the up*/down* family builder — the escape
// routing of the paper's irregular-network evaluation. root >= 0 forces
// the spanning-tree root; -1 selects the default highest-degree root.
func UpDownBuilder(root int) Builder {
	return func(t *topology.Topology) (*Engine, error) {
		var ud *UpDown
		var err error
		if root >= 0 {
			ud, err = NewUpDownRooted(t, root)
		} else {
			ud, err = NewUpDown(t)
		}
		if err != nil {
			return nil, err
		}
		det := ud.Tables()
		return &Engine{Name: "updown", Deterministic: det, Adaptive: NewFA(det)}, nil
	}
}
