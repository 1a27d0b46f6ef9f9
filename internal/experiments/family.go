package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"ibasim/internal/routing"
	"ibasim/internal/topology"
)

// FamilySpec selects a topology family plus its shape, the value behind
// the CLIs' -topo flag. The grammar:
//
//	irregular        the paper's random irregular networks (default;
//	                 shape comes from the usual switches/links/hosts knobs)
//	fattree:K,N      k-ary n-tree: N levels of K^(N-1) switches, K^N
//	                 hosts on the leaf row, D-mod-K escape routing
//	torus:AxB[xC]    2D/3D torus with wraparound, dimension-order escape
//	                 routing (hosts per switch from the hosts knob)
type FamilySpec struct {
	Kind    string // "irregular", "fattree" or "torus"
	FatTree topology.FatTreeSpec
	Torus   topology.TorusSpec // Dims only; HostsPerSwitch is filled at build time
}

// ParseFamily parses the -topo grammar. The empty string means
// irregular.
func ParseFamily(s string) (FamilySpec, error) {
	switch {
	case s == "" || s == "irregular":
		return FamilySpec{Kind: "irregular"}, nil
	case strings.HasPrefix(s, "fattree:"):
		parts := strings.Split(strings.TrimPrefix(s, "fattree:"), ",")
		if len(parts) != 2 {
			return FamilySpec{}, fmt.Errorf("experiments: bad fat-tree shape %q (want fattree:K,N)", s)
		}
		k, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
		n, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err1 != nil || err2 != nil {
			return FamilySpec{}, fmt.Errorf("experiments: bad fat-tree shape %q (want fattree:K,N)", s)
		}
		spec := topology.FatTreeSpec{Arity: k, Levels: n}
		if err := spec.Validate(); err != nil {
			return FamilySpec{}, err
		}
		return FamilySpec{Kind: "fattree", FatTree: spec}, nil
	case strings.HasPrefix(s, "torus:"):
		parts := strings.Split(strings.TrimPrefix(s, "torus:"), "x")
		dims := make([]int, 0, len(parts))
		for _, p := range parts {
			d, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return FamilySpec{}, fmt.Errorf("experiments: bad torus shape %q (want torus:AxB[xC])", s)
			}
			dims = append(dims, d)
		}
		spec := topology.TorusSpec{Dims: dims, HostsPerSwitch: 1}
		if err := spec.Validate(); err != nil {
			return FamilySpec{}, err
		}
		spec.HostsPerSwitch = 0 // filled from the hosts knob at build time
		return FamilySpec{Kind: "torus", Torus: spec}, nil
	default:
		return FamilySpec{}, fmt.Errorf("experiments: unknown topology family %q (want irregular, fattree:K,N or torus:AxB[xC])", s)
	}
}

// Irregular reports whether the spec selects the irregular family.
func (f FamilySpec) Irregular() bool { return f.Kind == "" || f.Kind == "irregular" }

// String renders the spec back in the -topo grammar.
func (f FamilySpec) String() string {
	switch f.Kind {
	case "fattree":
		return f.FatTree.String()
	case "torus":
		return f.Torus.String()
	default:
		return "irregular"
	}
}

// Topology generates the pristine fabric. The irregular spec supplies
// the irregular family's shape; structured families only borrow its
// HostsPerSwitch (the torus attachment; fat-trees fix their own).
func (f FamilySpec) Topology(irr topology.IrregularSpec) (*topology.Topology, error) {
	switch f.Kind {
	case "", "irregular":
		return topology.GenerateIrregular(irr)
	case "fattree":
		return topology.GenerateFatTree(f.FatTree)
	case "torus":
		spec := f.Torus
		spec.HostsPerSwitch = irr.HostsPerSwitch
		if spec.HostsPerSwitch <= 0 {
			spec.HostsPerSwitch = 1
		}
		return topology.GenerateTorus(spec)
	default:
		return nil, fmt.Errorf("experiments: unknown topology family %q", f.Kind)
	}
}

// Routing returns the family's routing.Builder — nil for irregular,
// which keeps the subnet manager on its up*/down* default (and every
// existing result bit-identical). The torus builder resolves host
// attachment from the topology it configures, so the spec's
// HostsPerSwitch needs no plumbing here.
func (f FamilySpec) Routing() routing.Builder {
	switch f.Kind {
	case "fattree":
		return routing.FatTreeBuilder(f.FatTree)
	case "torus":
		return routing.TorusBuilder(f.Torus)
	default:
		return nil
	}
}

// Figure3Family runs the Figure-3 protocol — latency versus accepted
// traffic while the adaptive-traffic share sweeps 0%..100% — on one
// structured-family topology with its native escape routing. The
// irregular family keeps its dedicated harness (Figure3); asking for it
// here is an error, not a silent fallback, so goldens never cross
// families by accident.
func Figure3Family(sc Scale, fam FamilySpec) (*Figure3Result, error) {
	if fam.Irregular() {
		return nil, fmt.Errorf("experiments: Figure3Family needs a structured family; use Figure3 for irregular")
	}
	topo, err := fam.Topology(topology.IrregularSpec{HostsPerSwitch: sc.HostsPerSw})
	if err != nil {
		return nil, err
	}
	return figure3Panel(sc, topo, fam.Routing(), fam.String())
}
