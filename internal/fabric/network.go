package fabric

import (
	"fmt"

	"ibasim/internal/core"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
	"ibasim/internal/topology"
)

// Network assembles switches, hosts and links over a topology and
// drives them with one discrete-event engine. Forwarding tables start
// unprogrammed; the subnet manager (internal/subnet) fills them before
// traffic flows, mirroring IBA initialization.
type Network struct {
	Engine *sim.Engine
	Topo   *topology.Topology
	Plan   *ib.AddressPlan
	Cfg    Config

	Switches []*Switch
	Hosts    []*Host

	rng *sim.RNG

	// Hot-path state every switch and host shares: the pooled event
	// freelist (see pool.go) and the struct-of-arrays store for
	// buffered-packet state (see vlbuffer.go). The engine dispatches
	// sequentially, so neither needs locking.
	evFree []*fabricEvent
	slab   entrySlab

	// pktSlab is the tail of the current packet allocation block;
	// NewPacket carves packets from it (see getPacket). pktBlocks
	// remembers every block consumed so Recycle can hand them back to
	// the sweep's PacketArena.
	pktSlab   []ib.Packet
	pktBlocks [][]ib.Packet

	// moved counts packet movements and nextID numbers the packets
	// NewPacket creates.
	moved  uint64
	nextID uint64

	// OnCreated fires when a packet enters a source queue; OnDelivered
	// when it reaches its destination CA; OnHop when a switch starts
	// forwarding a packet (switch ID, output port, whether an adaptive
	// routing option was used). Metrics collectors and tracers attach
	// here; attachers must chain any callback already present.
	OnCreated   func(*ib.Packet)
	OnDelivered func(*ib.Packet)
	OnHop       func(p *ib.Packet, sw int, out ib.PortID, adaptive bool)

	// OnDropped fires when the fabric discards a packet (unroutable
	// DLID, dead port/switch, or source send timeout). Same chaining
	// contract as the other hooks. A dropped packet may still be
	// re-injected by its source under Cfg.Retry; OnDropped fires once
	// per drop, not once per loss.
	OnDropped func(p *ib.Packet, reason DropReason)

	// Faults accumulates the degraded-mode counters. All zero on a
	// fault-free run.
	Faults FaultStats

	// tamper holds the mutation-suite fault model (see tamper.go). Zero
	// in every real run; the forwarding path reads it with plain bool
	// tests so honest runs pay nothing.
	tamper Tamper

	// wake is the arbiter runtime switch: Cfg.Arb resolves to the
	// wake-list arbiter, forced to the scan oracle while a tamper
	// model is installed or a Tamper* mutation hook has fired
	// (mutated, sticky) — those mutate forwarding state behind the
	// wait lists' back.
	wake    bool
	mutated bool
}

// applyArb recomputes the arbiter runtime switch. Re-arming the wake
// arbiter mid-run (a tamper model removed) wakes every point: the
// wake hooks are gated off while scanning — the scan oracle must not
// pay the bookkeeping it never reads — so the wholesale wake is what
// makes a scan->wake transition sound (every point is re-probed, and
// the failing ones rebuild their wait-list registrations).
func (n *Network) applyArb() {
	was := n.wake
	n.wake = n.Cfg.arbWake() && n.tamper == (Tamper{}) && !n.mutated
	if n.wake && !was {
		for _, sw := range n.Switches {
			sw.wakeAllPoints()
		}
	}
}

// forceScanArb permanently falls back to the scan arbiter: a Tamper*
// mutation hook changed credits/occupancy/tables without firing the
// wakes the wait lists rely on. Sticky for the network's lifetime.
func (n *Network) forceScanArb() {
	n.mutated = true
	n.wake = false
}

// ArbWake reports whether the wake-list arbiter is currently armed.
func (n *Network) ArbWake() bool { return n.wake }

// ArbParks sums, over every switch, the wait-list registrations the
// wake arbiter made. Tests use it to prove the wake path engaged (or
// was forced off).
func (n *Network) ArbParks() uint64 {
	var p uint64
	for _, sw := range n.Switches {
		p += sw.parks
	}
	return p
}

// FusedKicks always returns 0. Hop fusion, which ran some delay-0
// passes inline and counted them here, was removed; the method stays
// because the benchmark program reads it.
func (n *Network) FusedKicks() uint64 { return 0 }

// DropReason classifies why the fabric discarded a packet.
type DropReason uint8

const (
	// DropUnroutable: the forwarding-table access found no programmed
	// port for the packet's DLID (mid-reconfiguration transient).
	DropUnroutable DropReason = iota
	// DropDeadPort: the packet sat in (or arrived at) a failed switch.
	DropDeadPort
	// DropTimeout: the source queue head waited past Retry.SendTimeout.
	DropTimeout

	// NumDropReasons sizes per-reason counter arrays.
	NumDropReasons
)

func (r DropReason) String() string {
	switch r {
	case DropUnroutable:
		return "unroutable"
	case DropDeadPort:
		return "dead-port"
	case DropTimeout:
		return "send-timeout"
	}
	return fmt.Sprintf("drop-reason(%d)", uint8(r))
}

// FaultStats are the degraded-mode counters of one network.
type FaultStats struct {
	// DroppedUnroutable, DroppedOnDeadPort and DroppedTimeout count
	// packet drops by reason; Dropped() is their sum.
	DroppedUnroutable uint64
	DroppedOnDeadPort uint64
	DroppedTimeout    uint64

	// Retries counts re-injections of dropped packets at their source;
	// Lost counts packets discarded for good (retry budget exhausted
	// or retries disabled). MaxAttempts is the highest per-packet
	// re-injection count any single packet reached — the flaky-run
	// diagnostic campaigns surface (a run whose MaxAttempts brushes
	// the retry budget was close to losing traffic).
	Retries     uint64
	Lost        uint64
	MaxAttempts int
}

// Dropped returns the total number of drop events.
func (f FaultStats) Dropped() uint64 {
	return f.DroppedUnroutable + f.DroppedOnDeadPort + f.DroppedTimeout
}

// FaultTotals returns the degraded-mode counters; the same values as
// the exported Faults field.
func (n *Network) FaultTotals() FaultStats { return n.Faults }

// Moved returns the total number of packet movements (injections,
// hops, deliveries, drops) so far — a monotone progress clock for
// deadlock detection.
func (n *Network) Moved() uint64 { return n.moved }

// dropPacket accounts one discarded packet and, when the retry policy
// allows, schedules its re-injection at the source with exponential
// backoff.
func (n *Network) dropPacket(pkt *ib.Packet, reason DropReason) {
	switch reason {
	case DropUnroutable:
		n.Faults.DroppedUnroutable++
	case DropDeadPort:
		n.Faults.DroppedOnDeadPort++
	case DropTimeout:
		n.Faults.DroppedTimeout++
	}
	n.moved++
	if n.OnDropped != nil {
		n.OnDropped(pkt, reason)
	}
	rp := n.Cfg.Retry
	if rp.MaxRetries > 0 && pkt.Attempts < rp.MaxRetries {
		pkt.Attempts++
		n.Faults.Retries++
		if pkt.Attempts > n.Faults.MaxAttempts {
			n.Faults.MaxAttempts = pkt.Attempts
		}
		n.scheduleRequeue(rp.backoff(pkt.Attempts), n.Hosts[pkt.Src], pkt)
		return
	}
	n.Faults.Lost++
}

// NewNetwork wires a subnet over the topology. The LMC is chosen by
// the caller through plan (LMC 0 = no adaptive addressing). Seed
// feeds the selection/traffic RNG, not the topology.
func NewNetwork(topo *topology.Topology, plan *ib.AddressPlan, cfg Config, seed uint64) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if plan.NumHosts != topo.NumHosts() {
		return nil, fmt.Errorf("fabric: plan has %d hosts, topology %d", plan.NumHosts, topo.NumHosts())
	}
	// Hop events land at most routing + propagation + MTU
	// serialization time ahead; sizing the scheduler's wheel to a
	// generous multiple of that horizon keeps steady-state forwarding
	// traffic out of the overflow heap, leaving it the exponential
	// inter-arrival tail. Explicit cfg.EngineOpts apply after the hint
	// and override it. (A smaller wheel with hop-scale buckets was
	// tried and loses ~20% on saturated sweeps: wide buckets push the
	// sort and cursor-bucket insert costs past what the shorter
	// empty-slot walk saves.)
	hopHorizon := ib.RoutingDelay + ib.PropagationDelay + ib.SerializationTime(cfg.MTU)
	engineOpts := make([]sim.EngineOption, 0, len(cfg.EngineOpts)+1)
	engineOpts = append(engineOpts, sim.WithSpanHint(16*hopHorizon))
	engineOpts = append(engineOpts, cfg.EngineOpts...)
	net := &Network{
		Engine: sim.NewEngine(engineOpts...),
		Topo:   topo,
		Plan:   plan,
		Cfg:    cfg,
		rng:    sim.NewRNG(seed ^ 0x4641425249435F), // package tag
	}
	net.applyArb()

	detOnly := make(map[int]bool, len(cfg.DeterministicOnly))
	for _, s := range cfg.DeterministicOnly {
		if s < 0 || s >= topo.NumSwitches {
			return nil, fmt.Errorf("fabric: DeterministicOnly switch %d out of range", s)
		}
		detOnly[s] = true
	}
	numPorts := topo.SwitchPorts
	for s := 0; s < topo.NumSwitches; s++ {
		table, err := core.NewAdaptiveTable(plan.MaxLID(), plan.LMC)
		if err != nil {
			return nil, err
		}
		sl2vl, err := ib.NewSLtoVLTable(numPorts, ib.MaxVLs, cfg.NumVLs)
		if err != nil {
			return nil, err
		}
		net.Switches = append(net.Switches, &Switch{
			net:      net,
			id:       s,
			enhanced: cfg.AdaptiveSwitches && !detOnly[s],
			table:    table,
			sl2vl:    sl2vl,
			in:       make([]*inPort, numPorts),
			out:      make([]*outPort, numPorts),
		})
	}
	for h := 0; h < topo.NumHosts(); h++ {
		net.Hosts = append(net.Hosts, &Host{net: net, id: h, nextSeq: make([]uint64, topo.NumHosts())})
	}

	// Wire host links: host h occupies its switch's host-port slot
	// (ports 0..HostCount-1 face hosts; uniform attachment reduces to
	// port h mod HostsPerSwitch).
	for h, host := range net.Hosts {
		sw := net.Switches[topo.HostSwitch(h)]
		port := ib.PortID(topo.HostPortIndex(h))
		host.out = &outPort{
			owner:      host,
			net:        net,
			id:         0,
			peerSwitch: sw,
			peerPort:   port,
			credits:    net.fullCredits(),
		}
		sw.in[port] = &inPort{
			id:       port,
			vls:      net.newVLBuffers(sw.enhanced),
			upstream: host.out,
		}
		sw.out[port] = &outPort{
			owner:    sw,
			net:      net,
			ownerSw:  sw,
			id:       port,
			peerHost: host,
			credits:  net.fullCredits(),
		}
	}

	// Wire inter-switch links: switch s uses the ports after its host
	// ports, one per neighbour in ascending neighbour order.
	portOf := func(s, neighbor int) (ib.PortID, error) {
		for i, n := range topo.Neighbors(s) {
			if n == neighbor {
				return ib.PortID(topo.InterSwitchPortBase(s) + i), nil
			}
		}
		return 0, fmt.Errorf("fabric: %d not adjacent to %d", neighbor, s)
	}
	for _, l := range topo.Links {
		pa, err := portOf(l.A, l.B)
		if err != nil {
			return nil, err
		}
		pb, err := portOf(l.B, l.A)
		if err != nil {
			return nil, err
		}
		if int(pa) >= numPorts || int(pb) >= numPorts {
			return nil, fmt.Errorf("fabric: link %+v exceeds %d ports", l, numPorts)
		}
		a, b := net.Switches[l.A], net.Switches[l.B]
		net.wire(a, pa, b, pb)
		net.wire(b, pb, a, pa)
	}
	// Wiring is final: freeze the per-node hot-path state (cached
	// service points, bound event closures).
	for _, sw := range net.Switches {
		sw.finishWiring()
	}
	net.initWakeState()
	for _, h := range net.Hosts {
		h.finishWiring()
	}
	return net, nil
}

// wire creates the directed channel from (a, pa) to (b, pb).
func (n *Network) wire(a *Switch, pa ib.PortID, b *Switch, pb ib.PortID) {
	o := &outPort{
		owner:      a,
		net:        n,
		ownerSw:    a,
		id:         pa,
		peerSwitch: b,
		peerPort:   pb,
		credits:    n.fullCredits(),
	}
	a.out[pa] = o
	b.in[pb] = &inPort{
		id:       pb,
		vls:      n.newVLBuffers(b.enhanced),
		upstream: o,
	}
}

func (n *Network) fullCredits() []int {
	c := make([]int, n.Cfg.NumVLs)
	for i := range c {
		c[i] = n.Cfg.BufferCredits
	}
	return c
}

// newVLBuffers builds the per-VL input buffers of one switch port;
// enhanced switches split each buffer into adaptive and escape
// logical queues, stock switches keep a single queue.
func (n *Network) newVLBuffers(enhanced bool) []*vlBuffer {
	vls := make([]*vlBuffer, n.Cfg.NumVLs)
	for i := range vls {
		vls[i] = newVLBuffer(n.Cfg.Split, enhanced)
	}
	return vls
}

// NewPacket builds a packet from src to dst with the service mode
// encoded in the DLID per the address plan, stamped with the current
// simulated time. The caller injects it at Hosts[src]. In source
// multipath mode the adaptive flag is ignored and the DLID selects one
// of the alternative deterministic paths uniformly at random — the
// source-node path selection of the paper's introduction.
func (n *Network) NewPacket(src, dst, size int, adaptive bool) *ib.Packet {
	n.nextID++
	dlid := n.Plan.DLIDFor(dst, adaptive)
	if k := n.Cfg.SourceMultipath; k > 1 {
		adaptive = false
		dlid = n.Plan.BaseLID(dst) + ib.LID(n.rng.Intn(k))
	}
	pkt := n.getPacket()
	*pkt = ib.Packet{
		ID:        n.nextID,
		Src:       src,
		Dst:       dst,
		SLID:      n.Plan.BaseLID(src),
		DLID:      dlid,
		Size:      size,
		Adaptive:  adaptive && n.Plan.LMC > 0,
		CreatedAt: n.Engine.Now(),
	}
	return pkt
}

// PortToNeighbor returns switch s's output port wired to the adjacent
// switch n (ports follow ascending neighbour order after the host
// ports).
func (n *Network) PortToNeighbor(s, neighbor int) (ib.PortID, error) {
	for i, m := range n.Topo.Neighbors(s) {
		if m == neighbor {
			return ib.PortID(n.Topo.InterSwitchPortBase(s) + i), nil
		}
	}
	return 0, fmt.Errorf("fabric: switch %d not adjacent to %d", neighbor, s)
}

// HostPort returns the port of the host's switch that faces the host.
func (n *Network) HostPort(host int) ib.PortID {
	return ib.PortID(n.Topo.HostPortIndex(host))
}

// InFlight counts packets buffered in switches or source queues —
// zero once a finite workload has fully drained.
func (n *Network) InFlight() int {
	total := 0
	for _, sw := range n.Switches {
		total += sw.queuedPackets()
	}
	for _, h := range n.Hosts {
		total += h.QueueLen()
	}
	return total
}

// CreditsIntact verifies flow-control conservation: with no packet in
// flight, every output port must see the full credit count of its
// peer buffer. A mismatch means credits were lost or duplicated.
func (n *Network) CreditsIntact() error {
	check := func(o *outPort, owner string) error {
		if o == nil {
			return nil
		}
		for vl, c := range o.credits {
			if c != n.Cfg.BufferCredits {
				return fmt.Errorf("fabric: %s port %d vl %d has %d credits, want %d",
					owner, o.id, vl, c, n.Cfg.BufferCredits)
			}
		}
		return nil
	}
	for _, sw := range n.Switches {
		for _, o := range sw.out {
			if err := check(o, fmt.Sprintf("switch %d", sw.id)); err != nil {
				return err
			}
		}
	}
	for _, h := range n.Hosts {
		if err := check(h.out, fmt.Sprintf("host %d", h.id)); err != nil {
			return err
		}
	}
	return nil
}

// Run advances the simulation to the horizon (see sim.Engine.Run).
func (n *Network) Run(horizon sim.Time) { n.Engine.Run(horizon) }

// Processed returns the number of events dispatched so far.
func (n *Network) Processed() uint64 { return n.Engine.Processed() }

// Recycle returns the engine's queue storage to the arena the network
// was built with (sim.WithArena), so a sweep's next network reuses it;
// packet slab blocks go back to Cfg.PacketArena the same way. The
// caller asserts the run is over and nothing retains a *ib.Packet from
// it. Without arenas it is a no-op; calling it twice is safe.
func (n *Network) Recycle() {
	n.Engine.Recycle()
	if a := n.Cfg.PacketArena; a != nil {
		a.put(n.pktBlocks)
		n.pktBlocks, n.pktSlab = nil, nil
	}
}

// Drain runs the simulation until every event has fired, then
// verifies nothing is left in any buffer. It is the standard way tests
// finish a finite workload.
func (n *Network) Drain() error {
	n.Run(sim.Forever)
	if f := n.InFlight(); f != 0 {
		return fmt.Errorf("fabric: %d packets stuck after drain (deadlock?)", f)
	}
	return nil
}
