// Package subnet plays the role of the IBA subnet manager: at
// initialization time it computes the routing function over the
// discovered topology, assigns every destination port its LID range
// (done via ib.AddressPlan when the network is built), and fills each
// switch's linear forwarding table — storing the different routing
// choices of a destination "in a range of addresses of the forwarding
// tables, as if they were different destinations" (§4.1).
package subnet

import (
	"fmt"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/routing"
	"ibasim/internal/topology"
)

// Options configures table computation.
type Options struct {
	// MaxRoutingOptions is the paper's MR: the total number of routing
	// options programmed per destination at each switch, counting the
	// escape option. It must fit the network's LID range size
	// (MR <= 2^LMC). Zero means "fill every slot the LMC allows".
	MaxRoutingOptions int

	// Root forces the up*/down* root switch; -1 selects the default
	// (highest-degree) root.
	Root int

	// Engine selects the routing family builder (fat-tree D-mod-K,
	// torus dimension-order, ...). nil means up*/down* rooted per Root —
	// the paper's irregular-network configuration. Reconfiguration
	// passes the surviving topology back through the same builder;
	// structured-family builders detect the broken structure and fall
	// back to up*/down* on their own.
	Engine routing.Builder

	// SourceMultipath programs this many alternative deterministic
	// up*/down* routings into each destination's LID block instead of
	// the FA layout — the baseline the paper's introduction discusses
	// (path selected at the source, plain switches). Requires the
	// network's Config.SourceMultipath to match. 0 disables it.
	SourceMultipath int
}

// DefaultOptions requests two routing options (one escape, one
// adaptive), the paper's Figure-3 configuration, with automatic root
// selection.
func DefaultOptions() Options { return Options{MaxRoutingOptions: 2, Root: -1} }

// Configure computes up*/down* and FA routing for the network's
// topology and programs every switch's forwarding table. It returns
// the FA routing function for analysis (Table 2, path statistics).
//
// Slot layout per destination host (base address b, block size 2^LMC):
//
//	b+0: escape option — the up*/down* deterministic next hop;
//	b+1 .. b+MR-1: adaptive options — minimal next hops;
//	remaining slots: cycle-filled with the adaptive options so every
//	address of the block is programmed (a spec requirement: any DLID
//	in the range must route).
//
// When the network's switches are plain deterministic (the baseline),
// every slot of a block stores the escape port, exactly what §4.2
// prescribes for mixing deterministic-only switches into the subnet.
// ReconfigureStaged writes the tables through the same layout and
// writer, on the surviving topology.
func Configure(net *fabric.Network, opts Options) (*routing.FA, error) {
	l, err := newLayout(net, net.Topo, opts)
	if err != nil {
		return nil, err
	}
	for s := range net.Switches {
		if err := l.write(net, s); err != nil {
			return nil, err
		}
	}
	return l.fa, nil
}

// layout is the routing one subnet sweep programs: the verified
// engine's FA function for one topology and the shape of every
// destination's LID block. Configure and ReconfigureStaged both build
// one and write every switch's table from it.
type layout struct {
	fa    *routing.FA
	block int // LID range size, 2^LMC
	mr    int // routing options per block in the FA layout

	// paths holds the source-multipath variants: slot off of every
	// block stores variant off%len(paths)'s next hop. nil selects the
	// FA layout.
	paths []*routing.Deterministic
}

// newLayout builds and verifies the routing engine on topo — the
// pristine topology at initialization, the surviving one after a
// sweep — and checks that the result fits the network's LID blocks.
// Every error a bad configuration can cause surfaces here, before any
// table is written.
func newLayout(net *fabric.Network, topo *topology.Topology, opts Options) (*layout, error) {
	build := opts.Engine
	if build == nil {
		build = routing.UpDownBuilder(opts.Root)
	}
	eng, err := build(topo)
	if err != nil {
		return nil, err
	}
	if err := eng.Verify(); err != nil {
		return nil, err
	}
	l := &layout{fa: eng.Adaptive, block: net.Plan.RangeSize()}

	if k := opts.SourceMultipath; k > 1 {
		// k alternative deterministic up*/down* routings (tie-break
		// variants on one link orientation). All conform to the same
		// up*/down* relation, so their mixture is deadlock-free;
		// VerifyDeadlockFreeAll re-checks the union CDG mechanically.
		ud := eng.Deterministic.UD
		if ud == nil {
			return nil, fmt.Errorf("subnet: source multipath needs up*/down* variants, not the %s engine", eng.Name)
		}
		if k > l.block {
			return nil, fmt.Errorf("subnet: %d source paths exceed LID range size %d (raise LMC)", k, l.block)
		}
		if net.Cfg.SourceMultipath != k {
			return nil, fmt.Errorf("subnet: network configured for %d source paths, manager for %d",
				net.Cfg.SourceMultipath, k)
		}
		l.paths = make([]*routing.Deterministic, k)
		for v := range l.paths {
			l.paths[v] = ud.TablesVariant(v)
			if err := l.paths[v].Validate(); err != nil {
				return nil, fmt.Errorf("subnet: variant %d: %w", v, err)
			}
		}
		if err := routing.VerifyDeadlockFreeAll(l.paths); err != nil {
			return nil, err
		}
		return l, nil
	}

	l.mr = opts.MaxRoutingOptions
	if l.mr <= 0 {
		l.mr = l.block
	}
	if l.mr > l.block {
		return nil, fmt.Errorf("subnet: MR %d exceeds LID range size %d (raise LMC)", l.mr, l.block)
	}
	return l, nil
}

// write programs switch s's forwarding table from the layout, one LID
// block per destination host. Every host of a destination switch gets
// the same block, so each (switch, destination switch) pair is
// resolved once; only local delivery differs per host. Hops are
// resolved to ports through the network's wiring, which a
// reconfiguration never renumbers.
func (l *layout) write(net *fabric.Network, s int) error {
	sw := net.Switches[s]
	tab := sw.Table()
	var buf [1 << ib.MaxLMC]ib.PortID
	slots := buf[:l.block]
	// Host IDs are dense and grouped by switch in ascending order, so
	// walking every switch's hosts in turn visits dst = 0, 1, ...
	dst := 0
	for d := range net.Switches {
		hosts := net.Topo.HostCount(d)
		if hosts > 0 && d != s {
			if err := l.resolve(net, s, d, sw.Enhanced(), slots); err != nil {
				return err
			}
		}
		for ; hosts > 0; hosts-- {
			if d == s {
				// Local delivery: the host-facing port is the only
				// option.
				for off := range slots {
					slots[off] = net.HostPort(dst)
				}
			}
			base := net.Plan.BaseLID(dst)
			for off, p := range slots {
				if err := tab.Set(base+ib.LID(off), p); err != nil {
					return err
				}
			}
			dst++
		}
	}
	return nil
}

// resolve fills slots, one port per address of a LID block, with what
// switch s programs for a host on destination switch d != s.
//
// Source multipath stores variant off%len(paths)'s next hop at slot
// off. The FA layout stores the escape option (the up*/down* next hop)
// at slot 0 and up to mr-1 adaptive options (minimal next hops) after
// it, cycle-filled so every address of the block routes; a stock
// switch stores the escape port in every slot, as §4.2 prescribes for
// deterministic-only switches.
//
// In mixed subnets (§4.2) adaptive options leading to a
// deterministic-only switch are NOT programmed. A stock switch's VL
// buffer has a single service point, so packets parked behind its head
// inherit the head's dependencies; if adaptive (non-up*/down*) moves
// could deliver packets into that buffer, its dependencies would no
// longer be chains of consecutive up*/down* table moves and the escape
// network's acyclicity — the whole deadlock-freedom argument — would
// break (we reproduced exactly that hang before adding this filter;
// TestMixedPopulationTrafficDrains pins it). Restricting adaptivity to
// enhanced-to-enhanced hops keeps every packet in a stock switch on a
// pure table path.
func (l *layout) resolve(net *fabric.Network, s, d int, enhanced bool, slots []ib.PortID) error {
	if l.paths != nil {
		for off := range slots {
			p, err := net.PortToNeighbor(s, l.paths[off%len(l.paths)].NextHop[s][d])
			if err != nil {
				return err
			}
			slots[off] = p
		}
		return nil
	}
	escape, err := net.PortToNeighbor(s, l.fa.Escape(s, d))
	if err != nil {
		return err
	}
	slots[0] = escape
	// The adaptive ports go to slots[1:1+k]; the cycle fill only ever
	// reads the first len(slots)-1 of them.
	k := 0
	for _, hop := range l.fa.Options(s, d, l.mr-1) {
		if 1+k == len(slots) {
			break
		}
		if !net.Switches[hop].Enhanced() && d != hop {
			continue
		}
		p, err := net.PortToNeighbor(s, hop)
		if err != nil {
			return err
		}
		slots[1+k] = p
		k++
	}
	for off := 1; off < len(slots); off++ {
		if !enhanced || k == 0 {
			slots[off] = escape
		} else {
			slots[off] = slots[1+(off-1)%k]
		}
	}
	return nil
}
