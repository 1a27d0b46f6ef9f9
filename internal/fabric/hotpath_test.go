package fabric

// In-package hot-path tests: the per-hop forwarding path must not
// allocate at steady state. These live inside package fabric (rather
// than fabric_test) because they drive switch.receive directly and the
// subnet manager cannot be imported here without a cycle, so the
// forwarding tables are programmed by hand.

import (
	"testing"

	"ibasim/internal/ib"
	"ibasim/internal/topology"
)

// hotpathNet wires a 2-switch line (4 hosts each, LMC 1) and programs
// every table slot of each destination block with the single correct
// port — the minimal fabric on which a packet exercises the full
// enhanced-switch path: table lookup, arbitration, credit-split
// checks, transmission, credit return, delivery.
func hotpathNet(tb testing.TB) *Network { return hotpathNetCfg(tb, DefaultConfig()) }

// hotpathNetCfg is hotpathNet with a caller-supplied fabric config —
// the scan-arbiter tests set Cfg.Arb to hold the reference arbiter to
// the same zero-alloc bar.
func hotpathNetCfg(tb testing.TB, cfg Config) *Network {
	tb.Helper()
	topo, err := topology.Line(2, 4)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := ib.NewAddressPlan(topo.NumHosts(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := NewNetwork(topo, plan, cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	for s, sw := range net.Switches {
		for dst := 0; dst < topo.NumHosts(); dst++ {
			var port ib.PortID
			if topo.HostSwitch(dst) == s {
				port = net.HostPort(dst)
			} else {
				port, err = net.PortToNeighbor(s, topo.HostSwitch(dst))
				if err != nil {
					tb.Fatal(err)
				}
			}
			base := plan.BaseLID(dst)
			for off := 0; off < plan.RangeSize(); off++ {
				if err := sw.Table().Set(base+ib.LID(off), port); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return net
}

// TestSwitchHopZeroAllocsSteadyState is the alloc regression gate for
// the forwarding path: once table caches, object pools and slice
// capacities are warm, forwarding a packet across both switches to its
// destination CA — including every kick, the delay-0 arbitration
// passes they schedule, credit returns and the delivery event — must
// perform zero heap allocations.
func TestSwitchHopZeroAllocsSteadyState(t *testing.T) {
	net := hotpathNet(t)
	sw := net.Switches[0]
	pkt := net.NewPacket(0, 7, 32, true)
	hop := func() {
		sw.receive(0, 0, pkt)
		net.Engine.RunUntilIdle()
	}
	for i := 0; i < 100; i++ { // warm pools, caches, backing arrays
		hop()
	}
	if allocs := testing.AllocsPerRun(200, hop); allocs != 0 {
		t.Fatalf("steady-state forwarding allocates %v objects per traversal, want 0", allocs)
	}
}

// TestSwitchHopZeroAllocsUnfused holds the per-hop event chain — every
// kick, arbitration pass, credit return and delivery dispatched as its
// own engine event, with nothing run inline — to the zero-alloc bar,
// and checks that the chain has a fixed length: every warm traversal
// dispatches the same number of events, so no kick is elided or
// scheduled twice. "Unfused" names that chain; it is the only dispatch
// path, and the oracle every golden is pinned to.
func TestSwitchHopZeroAllocsUnfused(t *testing.T) {
	net := hotpathNet(t)
	sw := net.Switches[0]
	pkt := net.NewPacket(0, 7, 32, true)
	hop := func() {
		sw.receive(0, 0, pkt)
		net.Engine.RunUntilIdle()
	}
	for i := 0; i < 100; i++ {
		hop()
	}
	before := net.Engine.Processed()
	hop()
	perHop := net.Engine.Processed() - before
	if perHop == 0 {
		t.Fatal("a traversal dispatched no events")
	}
	for i := 0; i < 50; i++ {
		before = net.Engine.Processed()
		hop()
		if got := net.Engine.Processed() - before; got != perHop {
			t.Fatalf("traversal %d dispatched %d events, want %d like the first warm traversal", i, got, perHop)
		}
	}
	if allocs := testing.AllocsPerRun(200, hop); allocs != 0 {
		t.Fatalf("per-hop event chain allocates %v objects per traversal, want 0", allocs)
	}
}

// TestSwitchHopZeroAllocsDeterministic covers the stock-switch path
// (exact-DLID lookup, escape-only service) with a deterministic-service
// packet on enhanced switches.
func TestSwitchHopZeroAllocsDeterministic(t *testing.T) {
	net := hotpathNet(t)
	sw := net.Switches[0]
	pkt := net.NewPacket(0, 5, 32, false)
	hop := func() {
		sw.receive(0, 0, pkt)
		net.Engine.RunUntilIdle()
	}
	for i := 0; i < 100; i++ {
		hop()
	}
	if allocs := testing.AllocsPerRun(200, hop); allocs != 0 {
		t.Fatalf("steady-state deterministic forwarding allocates %v objects, want 0", allocs)
	}
}

// TestInjectZeroAllocsSteadyState extends the gate to the injection
// path: creating a packet, queueing it at the source CA and running it
// through to delivery. Packet storage comes from the context's slab
// (one allocation per pktSlabSize packets) and the source queue reuses
// its backing array, so the amortized per-packet figure must be the
// slab refill alone — well under 0.01 objects.
func TestInjectZeroAllocsSteadyState(t *testing.T) {
	net := hotpathNet(t)
	h := net.Hosts[0]
	inject := func() {
		h.Inject(net.NewPacket(0, 7, 32, true))
		net.Engine.RunUntilIdle()
	}
	for i := 0; i < 600; i++ { // warm pools and span a slab boundary
		inject()
	}
	if allocs := testing.AllocsPerRun(2*pktSlabSize, inject); allocs > 2.5/pktSlabSize {
		t.Fatalf("steady-state injection allocates %v objects per packet, want at most the amortized slab refill (%v)", allocs, 2.5/pktSlabSize)
	}
}

// BenchmarkSwitchHop measures one full two-switch traversal (receive
// at the ingress switch through delivery at the destination CA) at
// steady state.
func BenchmarkSwitchHop(b *testing.B) {
	net := hotpathNet(b)
	sw := net.Switches[0]
	pkt := net.NewPacket(0, 7, 32, true)
	hop := func() {
		sw.receive(0, 0, pkt)
		net.Engine.RunUntilIdle()
	}
	for i := 0; i < 100; i++ {
		hop()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop()
	}
}
