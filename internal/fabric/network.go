package fabric

import (
	"fmt"
	"math"

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

	// portTo[s*NumSwitches+m] is switch s's output port toward the
	// adjacent switch m, noPort when they are not adjacent: the wiring
	// rule (host ports first, then one port per neighbour in ascending
	// neighbour order) resolved once, for PortToNeighbor.
	portTo []uint8

	// Hot-path state every switch and host shares: the pooled event
	// freelist (see pool.go) and the struct-of-arrays store for
	// buffered-packet state (see vlbuffer.go). The engine dispatches
	// sequentially, so neither needs locking.
	evFree []*fabricEvent
	slab   entrySlab

	// chunks is the freelist every host's source queue grows from and
	// drains to (see srcqueue.go).
	chunks chunkPool

	// pktSlab is the tail of the current packet allocation block;
	// NewPacket and the hosts carve packets from it. pktFree holds the
	// generated packets delivered or lost for good, reused first (see
	// getPacket). carved counts the packets taken from the slab.
	pktSlab []ib.Packet
	pktFree []*ib.Packet
	carved  uint64

	// nextID numbers the packets NewPacket and Host.Generate create.
	nextID uint64

	// created counts the packets Host.Generate and Host.Inject queued
	// (see Created).
	created uint64

	// scratch is the packet view Host.Generate passes to OnCreated.
	scratch ib.Packet

	// OnCreated fires when a packet enters a source queue; OnDelivered
	// when it reaches its destination CA; OnHop when a switch starts
	// forwarding a packet (switch ID, output port, whether an adaptive
	// routing option was used). Metrics collectors and tracers attach
	// here; attachers must chain any callback already present.
	//
	// Every hook's packet pointer is valid only during the call.
	// Observers copy the fields they need and keep no pointer: the
	// network reuses a generated packet once it is delivered or lost
	// for good (see ib.Packet.Pooled), and for a generated packet
	// OnCreated receives a per-network scratch view that the next
	// generation overwrites, with SeqNo still 0 (a packet takes its
	// SeqNo when it leaves the source queue). Only a packet built by
	// NewPacket stays its caller's to read after the run.
	OnCreated   func(*ib.Packet)
	OnDelivered func(*ib.Packet)
	OnHop       func(p *ib.Packet, sw int, out ib.PortID, adaptive bool)

	// OnDropped fires when the fabric discards a packet (unroutable
	// DLID, dead port/switch, or source send timeout). Same chaining
	// and pointer contract as the other hooks. A dropped packet may
	// still be re-injected by its source under Cfg.Retry; OnDropped
	// fires once per drop, not once per loss.
	OnDropped func(p *ib.Packet, reason DropReason)

	// faults accumulates the degraded-mode counters (see FaultTotals).
	faults FaultStats

	// tamper holds the mutation-suite fault model (see tamper.go). Zero
	// in every real run; the forwarding path reads it with plain bool
	// tests so honest runs pay nothing.
	tamper Tamper

	// wake selects the wake-list arbiter (Cfg.Arb other than ArbScan);
	// set once, by NewNetwork.
	wake bool
}

// Created returns the number of packets that entered a source queue
// through Host.Generate or Host.Inject. A retry re-enters its queue
// without counting again. OnCreated fires for exactly these packets,
// but an observer that only counts reads this instead, so generation
// never builds the packet view.
func (n *Network) Created() uint64 { return n.created }

// ArbWake reports whether the network runs the wake-list arbiter.
func (n *Network) ArbWake() bool { return n.wake }

// ArbParks sums, over every switch, the wait-list registrations the
// wake arbiter made. Tests use it to prove the wake path engaged.
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

// FaultTotals returns the degraded-mode counters. All zero on a
// fault-free run.
func (n *Network) FaultTotals() FaultStats { return n.faults }

// dropPacket accounts one discarded packet and, when the retry policy
// allows, schedules its re-injection at the source with exponential
// backoff; a packet lost for good is recycled, so the caller reads it
// no more.
func (n *Network) dropPacket(pkt *ib.Packet, reason DropReason) {
	switch reason {
	case DropUnroutable:
		n.faults.DroppedUnroutable++
	case DropDeadPort:
		n.faults.DroppedOnDeadPort++
	case DropTimeout:
		n.faults.DroppedTimeout++
	}
	if n.OnDropped != nil {
		n.OnDropped(pkt, reason)
	}
	rp := n.Cfg.Retry
	if rp.MaxRetries > 0 && int(pkt.Attempts) < rp.MaxRetries {
		pkt.Attempts++
		attempts := int(pkt.Attempts)
		n.faults.Retries++
		if attempts > n.faults.MaxAttempts {
			n.faults.MaxAttempts = attempts
		}
		n.scheduleRequeue(rp.backoff(attempts), n.Hosts[pkt.Src], pkt)
		return
	}
	n.faults.Lost++
	n.putPacket(pkt)
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
	// A LID is 16 bits, so no plan addresses more hosts.
	if topo.NumHosts() > math.MaxUint16+1 {
		return nil, fmt.Errorf("fabric: %d hosts exceed the %d a 16-bit LID space addresses", topo.NumHosts(), math.MaxUint16+1)
	}
	// IBA port numbers are 8 bits and the forwarding tables store them
	// in a byte, with 255 reserved (ib.InvalidPort).
	if topo.SwitchPorts > ib.MaxPorts {
		return nil, fmt.Errorf("fabric: %d ports per switch exceed the %d an 8-bit port number addresses", topo.SwitchPorts, ib.MaxPorts)
	}
	net := &Network{
		Engine: sim.NewEngine(cfg.EngineOpts...),
		Topo:   topo,
		Plan:   plan,
		Cfg:    cfg,
		rng:    sim.NewRNG(seed ^ 0x4641425249435F), // package tag
		wake:   cfg.Arb != ArbScan,
	}
	k := topo.NumSwitches
	net.portTo = make([]uint8, k*k)
	for i := range net.portTo {
		net.portTo[i] = noPort
	}
	for s, ns := range topo.Adjacency() {
		for i, m := range ns {
			net.portTo[s*k+m] = uint8(topo.InterSwitchPortBase(s) + i)
		}
	}

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
		net.Switches = append(net.Switches, &Switch{
			net:      net,
			id:       s,
			enhanced: cfg.AdaptiveSwitches && !detOnly[s],
			table:    table,
			in:       make([]*inPort, numPorts),
			out:      make([]*outPort, numPorts),
		})
	}
	for h := 0; h < topo.NumHosts(); h++ {
		net.Hosts = append(net.Hosts, &Host{
			net:     net,
			id:      h,
			queue:   pktFIFO{pool: &net.chunks},
			nextSeq: make([]uint32, topo.NumHosts()),
		})
	}

	// Wire host links: host h occupies its switch's host-port slot
	// (ports 0..HostCount-1 face hosts; uniform attachment reduces to
	// port h mod HostsPerSwitch).
	for h, host := range net.Hosts {
		sw := net.Switches[topo.HostSwitch(h)]
		port := ib.PortID(topo.HostPortIndex(h))
		host.out = &outPort{
			ownerHost:  host,
			net:        net,
			id:         0,
			peerSwitch: sw,
			peerPort:   port,
			credits:    cfg.Split.CMax,
		}
		sw.in[port] = &inPort{
			id:       port,
			buf:      newVLBuffer(cfg.Split, sw.enhanced),
			upstream: host.out,
		}
		sw.out[port] = &outPort{
			net:      net,
			ownerSw:  sw,
			id:       port,
			peerHost: host,
			credits:  cfg.Split.CMax,
		}
	}

	// Wire inter-switch links: switch s uses the ports after its host
	// ports, one per neighbour in ascending neighbour order.
	for _, l := range topo.Links {
		pa, pb, err := net.linkPorts(l.A, l.B)
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
		net:        n,
		ownerSw:    a,
		id:         pa,
		peerSwitch: b,
		peerPort:   pb,
		credits:    n.Cfg.Split.CMax,
	}
	a.out[pa] = o
	b.in[pb] = &inPort{
		id:       pb,
		buf:      newVLBuffer(n.Cfg.Split, b.enhanced),
		upstream: o,
	}
}

// NewPacket builds a packet from src to dst with the service mode
// encoded in the DLID per the address plan, stamped with the current
// simulated time. The caller injects it at Hosts[src]. In source
// multipath mode the adaptive flag is ignored and the DLID selects one
// of the alternative deterministic paths uniformly at random — the
// source-node path selection of the paper's introduction. The packet
// stays the caller's: the network never recycles it.
func (n *Network) NewPacket(src, dst, size int, adaptive bool) *ib.Packet {
	id, path := n.address()
	dlid, adaptive := n.dlid(dst, adaptive, path)
	pkt := n.getPacket()
	*pkt = ib.Packet{
		ID:        id,
		Src:       int32(src),
		Dst:       int32(dst),
		DLID:      dlid,
		Size:      int32(size),
		Adaptive:  adaptive,
		CreatedAt: n.Engine.Now(),
	}
	return pkt
}

// address takes the next packet ID and, in source multipath mode,
// draws which of the destination's paths a new packet takes: the one
// draw NewPacket and Host.Generate share, so both consume IDs and the
// source-multipath RNG in the same order.
func (n *Network) address() (id uint64, path int) {
	n.nextID++
	if k := n.Cfg.SourceMultipath; k > 1 {
		path = n.rng.Intn(k)
	}
	return n.nextID, path
}

// dlid returns the DLID of a packet to dst on the path address drew
// and settles its adaptive flag. In source multipath mode the flag is
// ignored and path offsets the destination's base LID; otherwise the
// address plan encodes the requested service (§4.2).
func (n *Network) dlid(dst int, adaptive bool, path int) (ib.LID, bool) {
	if n.Cfg.SourceMultipath > 1 {
		return n.Plan.BaseLID(dst) + ib.LID(path), false
	}
	return n.Plan.DLIDFor(dst, adaptive), adaptive && n.Plan.LMC > 0
}

// noPort marks a portTo entry of two switches that are not adjacent.
const noPort = 0xFF

// PortToNeighbor returns switch s's output port wired to the adjacent
// switch n (ports follow ascending neighbour order after the host
// ports).
func (n *Network) PortToNeighbor(s, neighbor int) (ib.PortID, error) {
	if k := n.Topo.NumSwitches; s >= 0 && s < k && neighbor >= 0 && neighbor < k {
		if p := n.portTo[s*k+neighbor]; p != noPort {
			return ib.PortID(p), nil
		}
	}
	return 0, fmt.Errorf("fabric: switch %d not adjacent to %d", neighbor, s)
}

// linkPorts returns the two ports of the cable between switches a and
// b: a's port toward b and b's port toward a.
func (n *Network) linkPorts(a, b int) (pa, pb ib.PortID, err error) {
	if pa, err = n.PortToNeighbor(a, b); err == nil {
		pb, err = n.PortToNeighbor(b, a)
	}
	return pa, pb, err
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
		if o == nil || o.credits == n.Cfg.Split.CMax {
			return nil
		}
		return fmt.Errorf("fabric: %s port %d has %d credits, want %d",
			owner, o.id, o.credits, n.Cfg.Split.CMax)
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

// Recycle does nothing. A network keeps no storage for later runs: its
// engine's queue and its packet blocks are freed with it. The method
// stays because the benchmark program (perfbench/replay.go), its only
// caller, calls it when a run ends.
func (n *Network) Recycle() {}

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
