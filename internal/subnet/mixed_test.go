package subnet

import (
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
	"ibasim/internal/topology"
)

// mixedNet builds a subnet where half the switches are stock
// deterministic (§4.2's mixed population).
func mixedNet(t *testing.T, n int, seed uint64) *fabric.Network {
	t.Helper()
	topo, err := topology.GenerateIrregular(topology.IrregularSpec{
		NumSwitches: n, HostsPerSwitch: 4, InterSwitch: 4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ib.NewAddressPlan(topo.NumHosts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fabric.DefaultConfig()
	for s := 0; s < n; s += 2 {
		cfg.DeterministicOnly = append(cfg.DeterministicOnly, s)
	}
	net, err := fabric.NewNetwork(topo, plan, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestMixedPopulationTableLayout(t *testing.T) {
	net := mixedNet(t, 8, 1)
	if _, err := Configure(net, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	for _, sw := range net.Switches {
		uniform := sw.ID()%2 == 0 // even switches are deterministic-only
		for dst := 0; dst < net.Topo.NumHosts(); dst++ {
			base := net.Plan.BaseLID(dst)
			same := sw.Table().Get(base) == sw.Table().Get(base+1)
			if uniform && !same {
				t.Fatalf("det-only switch %d has distinct slots for dst %d", sw.ID(), dst)
			}
		}
		if got := sw.Enhanced(); got == uniform {
			t.Fatalf("switch %d Enhanced() = %v", sw.ID(), got)
		}
	}
}

func TestMixedPopulationTrafficDrains(t *testing.T) {
	net := mixedNet(t, 16, 3)
	if _, err := Configure(net, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	hosts := net.Topo.NumHosts()
	delivered := 0
	net.OnDelivered = func(_ *ib.Packet) { delivered++ }
	for i := 0; i < 2500; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		net.Hosts[src].Inject(net.NewPacket(src, dst, 32, rng.Bool(0.6)))
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if delivered != 2500 {
		t.Fatalf("delivered %d, want 2500", delivered)
	}
	if err := net.CreditsIntact(); err != nil {
		t.Fatal(err)
	}
}

func TestMixedPopulationOnlyEnhancedAdapt(t *testing.T) {
	net := mixedNet(t, 8, 5)
	if _, err := Configure(net, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	adaptiveAt := map[int]bool{}
	net.OnHop = func(_ *ib.Packet, sw int, _ ib.PortID, adaptive bool) {
		if adaptive {
			adaptiveAt[sw] = true
		}
	}
	rng := sim.NewRNG(9)
	hosts := net.Topo.NumHosts()
	for i := 0; i < 2000; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		net.Hosts[src].Inject(net.NewPacket(src, dst, 32, true))
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	for sw := range adaptiveAt {
		if sw%2 == 0 {
			t.Fatalf("deterministic-only switch %d made an adaptive decision", sw)
		}
	}
	if len(adaptiveAt) == 0 {
		t.Fatal("no adaptive decisions anywhere despite enhanced switches")
	}
}

func TestDeterministicOnlyOutOfRangeRejected(t *testing.T) {
	topo, err := topology.GenerateIrregular(topology.IrregularSpec{
		NumSwitches: 8, HostsPerSwitch: 4, InterSwitch: 4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ib.NewAddressPlan(topo.NumHosts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fabric.DefaultConfig()
	cfg.DeterministicOnly = []int{99}
	if _, err := fabric.NewNetwork(topo, plan, cfg, 1); err == nil {
		t.Fatal("out-of-range DeterministicOnly accepted")
	}
}

// TestMixedReconfigurationKeepsFence: a reconfiguration writes the
// tables through the same §4.2 fence Configure does. No enhanced switch
// may hold an adaptive slot (one that differs from its block's escape
// slot) leading into a stock switch other than the destination's.
func TestMixedReconfigurationKeepsFence(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		net := mixedNet(t, 16, seed)
		if _, err := Configure(net, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		if err := reconfigure(t, net, DefaultOptions(), net.Topo.Links[0]); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		breaches := 0
		for s, sw := range net.Switches {
			if !sw.Enhanced() {
				continue
			}
			for dst := 0; dst < net.Topo.NumHosts(); dst++ {
				d := net.Topo.HostSwitch(dst)
				base := net.Plan.BaseLID(dst)
				escape := sw.Table().Get(base)
				for off := 1; off < net.Plan.RangeSize(); off++ {
					p := sw.Table().Get(base + ib.LID(off))
					if p == escape {
						continue
					}
					if hop, ok := net.NeighborAt(s, p); ok && hop != d && !net.Switches[hop].Enhanced() {
						breaches++
					}
				}
			}
		}
		if breaches > 0 {
			t.Errorf("seed %d: %d adaptive slots lead into a stock switch after reconfiguration", seed, breaches)
		}
	}
}
