package topology

import (
	"fmt"

	"ibasim/internal/sim"
)

// IrregularSpec describes a randomly generated irregular topology with
// the paper's constraints (§5.1): every switch has the same total port
// count and the same number of attached hosts, neighbouring switches
// are connected by exactly one link, and the switch graph is connected.
// The inter-switch degree is SwitchPorts - HostsPerSwitch for every
// switch, i.e. the graph is regular (the paper's "4 links" / "6 links"
// configurations).
type IrregularSpec struct {
	NumSwitches    int
	HostsPerSwitch int    // paper: 4
	InterSwitch    int    // links to other switches per switch: 4 or 6
	Seed           uint64 // generation seed; same seed, same topology
}

// SwitchPorts returns the total ports per switch implied by the spec.
func (s IrregularSpec) SwitchPorts() int { return s.HostsPerSwitch + s.InterSwitch }

// GenerateIrregular builds a random connected InterSwitch-regular
// simple graph. It starts from a circulant graph (always connected and
// regular) and randomizes it with double-edge swaps — the standard
// degree-preserving Markov chain — rejecting swaps that would create
// self-loops or duplicate links and re-randomizing if the result is
// disconnected. Unlike the configuration model this works at any edge
// density, including the paper's near-complete 6-regular 8-switch case.
func GenerateIrregular(spec IrregularSpec) (*Topology, error) {
	n, k := spec.NumSwitches, spec.InterSwitch
	if n <= 0 || k < 0 || spec.HostsPerSwitch < 0 {
		return nil, fmt.Errorf("topology: invalid spec %+v", spec)
	}
	if k >= n {
		return nil, fmt.Errorf("topology: degree %d impossible with %d switches", k, n)
	}
	if n*k%2 != 0 {
		return nil, fmt.Errorf("topology: %d switches of degree %d (odd stub count)", n, k)
	}
	rng := sim.NewRNG(spec.Seed ^ 0x49424153) // mix a package tag into the seed
	t, err := circulant(spec)
	if err != nil {
		return nil, err
	}
	// Mix well past the chain's empirical mixing time, then keep
	// swapping in smaller batches until connectivity holds.
	swaps := 20 * len(t.Links)
	const maxRounds = 200
	for round := 0; round < maxRounds; round++ {
		doubleEdgeSwaps(t, rng, swaps)
		if t.Connected() {
			return t, nil
		}
		swaps = 2 * len(t.Links)
	}
	return nil, fmt.Errorf("topology: no connected %d-regular graph on %d switches after %d rounds",
		k, n, maxRounds)
}

// circulant builds the connected k-regular circulant graph on n
// vertices: vertex v connects to v±1, v±2, ..., v±k/2 (mod n), plus
// v+n/2 when k is odd (n must then be even, which the parity check in
// GenerateIrregular guarantees).
func circulant(spec IrregularSpec) (*Topology, error) {
	n, k := spec.NumSwitches, spec.InterSwitch
	t := New(n, spec.HostsPerSwitch, spec.SwitchPorts())
	for off := 1; off <= k/2; off++ {
		for v := 0; v < n; v++ {
			a, b := v, (v+off)%n
			if a > b {
				a, b = b, a
			}
			if !t.HasLink(a, b) {
				if err := t.AddLink(a, b); err != nil {
					return nil, err
				}
			}
		}
	}
	if k%2 == 1 {
		for v := 0; v < n/2; v++ {
			if err := t.AddLink(v, v+n/2); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// doubleEdgeSwaps performs up to attempts random degree-preserving
// rewires: links (a,b) and (c,d) become (a,d) and (c,b) when that
// introduces no self-loop or duplicate.
func doubleEdgeSwaps(t *Topology, rng *sim.RNG, attempts int) {
	m := len(t.Links)
	if m < 2 {
		return
	}
	t.indexLinks()
	for s := 0; s < attempts; s++ {
		i := rng.Intn(m)
		j := rng.Intn(m)
		if i == j {
			continue
		}
		l1, l2 := t.Links[i], t.Links[j]
		a, b, c, d := l1.A, l1.B, l2.A, l2.B
		// Randomly choose one of the two rewirings to keep the chain
		// symmetric.
		if rng.Bool(0.5) {
			c, d = d, c
		}
		// Proposed new links: (a,d) and (c,b).
		if a == d || c == b {
			continue
		}
		n1 := Link{A: min(a, d), B: max(a, d)}
		n2 := Link{A: min(c, b), B: max(c, b)}
		if n1 == n2 || t.HasLink(n1.A, n1.B) || t.HasLink(n2.A, n2.B) {
			continue
		}
		t.Links[i] = n1
		t.Links[j] = n2
		// A swap keeps every degree; only the link set changes.
		for _, l := range [4]Link{l1, l2, n1, n2} {
			t.flipLink(l)
		}
		t.adj = nil
	}
}

// MustGenerateIrregular is GenerateIrregular for specs known to be
// feasible (experiment harnesses, examples); it panics on error.
func MustGenerateIrregular(spec IrregularSpec) *Topology {
	t, err := GenerateIrregular(spec)
	if err != nil {
		panic(err)
	}
	return t
}

// GenerateSeedSet builds count topologies from consecutive seeds
// starting at firstSeed, as the paper does ("ten different topologies
// randomly generated for each network size").
func GenerateSeedSet(spec IrregularSpec, firstSeed uint64, count int) ([]*Topology, error) {
	out := make([]*Topology, 0, count)
	for i := 0; i < count; i++ {
		s := spec
		s.Seed = firstSeed + uint64(i)
		t, err := GenerateIrregular(s)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", s.Seed, err)
		}
		out = append(out, t)
	}
	return out, nil
}
