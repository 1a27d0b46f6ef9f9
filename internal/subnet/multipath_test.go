package subnet

import (
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
	"ibasim/internal/topology"
)

func buildMultipathNet(t *testing.T, n, k int, seed uint64, lmc uint, paths int) *fabric.Network {
	t.Helper()
	topo, err := topology.GenerateIrregular(topology.IrregularSpec{
		NumSwitches: n, HostsPerSwitch: 4, InterSwitch: k, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ib.NewAddressPlan(topo.NumHosts(), lmc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fabric.DefaultConfig()
	cfg.AdaptiveSwitches = false
	cfg.SourceMultipath = paths
	net, err := fabric.NewNetwork(topo, plan, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestMultipathProgramsAllSlots(t *testing.T) {
	net := buildMultipathNet(t, 16, 4, 1, 2, 4)
	if _, err := Configure(net, Options{Root: -1, SourceMultipath: 4}); err != nil {
		t.Fatal(err)
	}
	for _, sw := range net.Switches {
		for dst := 0; dst < net.Topo.NumHosts(); dst++ {
			base := net.Plan.BaseLID(dst)
			for off := 0; off < 4; off++ {
				if sw.Table().Get(base+ib.LID(off)) == ib.InvalidPort {
					t.Fatalf("switch %d slot %d unprogrammed", sw.ID(), off)
				}
			}
		}
	}
}

func TestMultipathRejectsMismatch(t *testing.T) {
	net := buildMultipathNet(t, 8, 4, 2, 2, 2)
	if _, err := Configure(net, Options{Root: -1, SourceMultipath: 4}); err == nil {
		t.Fatal("manager/network path-count mismatch accepted")
	}
}

func TestMultipathRejectsTooManyPaths(t *testing.T) {
	net := buildMultipathNet(t, 8, 4, 3, 1, 4) // block size 2 < 4 paths
	if _, err := Configure(net, Options{Root: -1, SourceMultipath: 4}); err == nil {
		t.Fatal("4 paths accepted with LMC 1")
	}
}

func TestMultipathTrafficDrainsAndUsesAlternatives(t *testing.T) {
	net := buildMultipathNet(t, 16, 4, 4, 1, 2)
	if _, err := Configure(net, Options{Root: -1, SourceMultipath: 2}); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(5)
	hosts := net.Topo.NumHosts()
	dlids := map[ib.LID]bool{}
	delivered := 0
	net.OnDelivered = func(p *ib.Packet) {
		delivered++
		dlids[p.DLID] = true
	}
	for i := 0; i < 1500; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		net.Hosts[src].Inject(net.NewPacket(src, dst, 32, false))
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1500 {
		t.Fatalf("delivered %d, want 1500", delivered)
	}
	// Both DLID offsets must appear: the sources really select among
	// alternative paths.
	odd, even := false, false
	for lid := range dlids {
		if lid&1 == 1 {
			odd = true
		} else {
			even = true
		}
	}
	if !odd || !even {
		t.Fatal("only one path slot ever used")
	}
	if err := net.CreditsIntact(); err != nil {
		t.Fatal(err)
	}
}

func TestMultipathOverloadDrains(t *testing.T) {
	net := buildMultipathNet(t, 16, 4, 6, 2, 4)
	if _, err := Configure(net, Options{Root: -1, SourceMultipath: 4}); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	hosts := net.Topo.NumHosts()
	for i := 0; i < 4000; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		net.Hosts[src].Inject(net.NewPacket(src, dst, 256, false))
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestMultipathSurvivesReconfiguration: a reconfiguration re-programs
// the source-multipath layout, not the FA one, so every destination
// block keeps its alternative paths and traffic still drains.
func TestMultipathSurvivesReconfiguration(t *testing.T) {
	net := buildMultipathNet(t, 16, 4, 1, 2, 4)
	opts := Options{Root: -1, SourceMultipath: 4}
	if _, err := Configure(net, opts); err != nil {
		t.Fatal(err)
	}
	multiPort := func() int {
		n := 0
		for _, sw := range net.Switches {
			for dst := 0; dst < net.Topo.NumHosts(); dst++ {
				base := net.Plan.BaseLID(dst)
				for off := 1; off < net.Plan.RangeSize(); off++ {
					if sw.Table().Get(base+ib.LID(off)) != sw.Table().Get(base) {
						n++
						break
					}
				}
			}
		}
		return n
	}
	if got := multiPort(); got != 160 {
		t.Fatalf("%d multi-port blocks after Configure, want 160", got)
	}
	if err := reconfigure(t, net, opts, net.Topo.Links[0]); err != nil {
		t.Fatal(err)
	}
	if got := multiPort(); got != 160 {
		t.Fatalf("%d multi-port blocks after reconfiguration, want 160", got)
	}
	rng := sim.NewRNG(3)
	hosts := net.Topo.NumHosts()
	delivered := 0
	net.OnDelivered = func(_ *ib.Packet) { delivered++ }
	for i := 0; i < 3000; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		net.Hosts[src].Inject(net.NewPacket(src, dst, 32, false))
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if delivered != 3000 {
		t.Fatalf("delivered %d, want 3000", delivered)
	}
	if err := net.CreditsIntact(); err != nil {
		t.Fatal(err)
	}
}
