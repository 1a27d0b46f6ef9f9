package subnet

import (
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
	"ibasim/internal/topology"
)

// reconfigure runs a planned reconfiguration: ReconfigureStaged with
// zero delays, then the engine up to the instant the last switch is
// reprogrammed.
func reconfigure(t *testing.T, net *fabric.Network, opts Options, failed ...topology.Link) error {
	t.Helper()
	doneAt, err := ReconfigureStaged(net, opts, StagedOptions{}, failed...)
	if err != nil {
		return err
	}
	net.Engine.Run(doneAt)
	return nil
}

func TestReconfigureAvoidsFailedLink(t *testing.T) {
	net := buildNet(t, 16, 4, 1, 1, true)
	if _, err := Configure(net, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	failed := net.Topo.Links[0]
	if err := reconfigure(t, net, DefaultOptions(), failed); err != nil {
		t.Fatal(err)
	}
	if !net.LinkIsDown(failed.A, failed.B) {
		t.Fatal("failed link not marked down")
	}
	// No forwarding-table entry may reference the dead ports.
	pa, err := net.PortToNeighbor(failed.A, failed.B)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := net.PortToNeighbor(failed.B, failed.A)
	if err != nil {
		t.Fatal(err)
	}
	for dst := 0; dst < net.Topo.NumHosts(); dst++ {
		base := net.Plan.BaseLID(dst)
		for off := 0; off < net.Plan.RangeSize(); off++ {
			if net.Switches[failed.A].Table().Get(base+ib.LID(off)) == pa {
				t.Fatalf("switch %d still routes dst %d over dead port", failed.A, dst)
			}
			if net.Switches[failed.B].Table().Get(base+ib.LID(off)) == pb {
				t.Fatalf("switch %d still routes dst %d over dead port", failed.B, dst)
			}
		}
	}
}

func TestReconfigureRejectsDisconnection(t *testing.T) {
	// A line topology disconnects when any link fails.
	topo, err := topology.Line(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	net := netFromTopo(t, topo, 1, true)
	if _, err := Configure(net, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if err := reconfigure(t, net, DefaultOptions(), topo.Links[1]); err == nil {
		t.Fatal("disconnecting failure accepted")
	}
}

func TestTrafficSurvivesReconfiguration(t *testing.T) {
	net := buildNet(t, 16, 4, 3, 1, true)
	if _, err := Configure(net, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(11)
	hosts := net.Topo.NumHosts()
	delivered := 0
	net.OnDelivered = func(_ *ib.Packet) { delivered++ }
	inject := func(n int) {
		for i := 0; i < n; i++ {
			src, dst := rng.Intn(hosts), rng.Intn(hosts)
			if src == dst {
				dst = (dst + 1) % hosts
			}
			net.Hosts[src].Inject(net.NewPacket(src, dst, 32, rng.Bool(0.5)))
		}
	}

	// Phase 1: traffic on the intact network, partially drained so
	// packets are buffered mid-flight when the failure hits.
	inject(800)
	net.Engine.Run(5_000)

	// Fail one link and reconfigure immediately.
	failed := net.Topo.Links[2]
	if err := reconfigure(t, net, DefaultOptions(), failed); err != nil {
		t.Fatal(err)
	}

	// Phase 2: more traffic on the degraded network.
	inject(800)
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1600 {
		t.Fatalf("delivered %d, want 1600", delivered)
	}
	// The dead cable carried nothing after the reconfiguration; since
	// packets in flight complete, allow the ones already serialized.
	if err := net.CreditsIntact(); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureMultipleFailures(t *testing.T) {
	net := buildNet(t, 32, 6, 5, 1, true)
	if _, err := Configure(net, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	fails := []topology.Link{net.Topo.Links[0], net.Topo.Links[10], net.Topo.Links[20]}
	if err := reconfigure(t, net, DefaultOptions(), fails...); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(13)
	hosts := net.Topo.NumHosts()
	delivered := 0
	net.OnDelivered = func(_ *ib.Packet) { delivered++ }
	for i := 0; i < 1000; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		net.Hosts[src].Inject(net.NewPacket(src, dst, 32, true))
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1000 {
		t.Fatalf("delivered %d, want 1000", delivered)
	}
}

// TestReconfigureInvalidatesLookupCache guards the AdaptiveTable block
// cache against stale decodes: a Lookup performed before the subnet
// manager reprograms a switch must not pin the superseded option set.
// After the reconfiguration, fresh lookups have to agree with the linear
// (subnet-manager) view of the reprogrammed table and must not offer
// any dead port.
func TestReconfigureInvalidatesLookupCache(t *testing.T) {
	net := buildNet(t, 16, 4, 1, 1, true)
	if _, err := Configure(net, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	// Warm every switch's decoded-block cache for every destination,
	// as steady-state traffic would.
	warm := func() {
		for _, sw := range net.Switches {
			for dst := 0; dst < net.Topo.NumHosts(); dst++ {
				if _, _, err := sw.Table().Lookup(net.Plan.AdaptiveLID(dst)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	warm()

	failed := net.Topo.Links[0]
	if err := reconfigure(t, net, DefaultOptions(), failed); err != nil {
		t.Fatal(err)
	}
	deadPort := func(s int) (ib.PortID, bool) {
		switch s {
		case failed.A:
			p, err := net.PortToNeighbor(failed.A, failed.B)
			if err != nil {
				t.Fatal(err)
			}
			return p, true
		case failed.B:
			p, err := net.PortToNeighbor(failed.B, failed.A)
			if err != nil {
				t.Fatal(err)
			}
			return p, true
		}
		return 0, false
	}
	for s, sw := range net.Switches {
		dead, hasDead := deadPort(s)
		for dst := 0; dst < net.Topo.NumHosts(); dst++ {
			base := net.Plan.BaseLID(dst)
			escape, adaptive, err := sw.Table().Lookup(net.Plan.AdaptiveLID(dst))
			if err != nil {
				t.Fatal(err)
			}
			if escape != sw.Table().Get(base) {
				t.Fatalf("switch %d dst %d: cached escape %d != linear view %d",
					s, dst, escape, sw.Table().Get(base))
			}
			if hasDead {
				if escape == dead {
					t.Fatalf("switch %d dst %d: stale cache still escapes over dead port %d", s, dst, dead)
				}
				for _, p := range adaptive {
					if p == dead {
						t.Fatalf("switch %d dst %d: stale cache still offers dead port %d", s, dst, dead)
					}
				}
			}
		}
	}
}
