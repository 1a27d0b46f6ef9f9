package traffic

import (
	"math"
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/subnet"
	"ibasim/internal/topology"
)

func testNet(t *testing.T, switches int) *fabric.Network {
	t.Helper()
	topo, err := topology.Ring(switches, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ib.NewAddressPlan(topo.NumHosts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := fabric.NewNetwork(topo, plan, fabric.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := subnet.Configure(net, subnet.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestGeneratorRateMatchesLoad(t *testing.T) {
	net := testNet(t, 4) // 16 hosts
	cfg := Config{
		Pattern:               Uniform{NumHosts: 16},
		PacketSize:            32,
		AdaptiveFraction:      1,
		LoadBytesPerNsPerHost: 0.01, // one packet per 3200 ns per host
		Seed:                  1,
	}
	g, err := NewGenerator(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 2_000_000
	g.Start(horizon)
	net.Engine.Run(horizon)
	want := float64(16) * horizon * cfg.LoadBytesPerNsPerHost / float64(cfg.PacketSize)
	got := float64(g.Generated())
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("generated %v packets, want ~%v", got, want)
	}
}

func TestGeneratorAdaptiveFraction(t *testing.T) {
	net := testNet(t, 4)
	adaptive, total := 0, 0
	net.OnCreated = func(p *ib.Packet) {
		total++
		if p.Adaptive {
			adaptive++
		}
	}
	cfg := Config{
		Pattern:               Uniform{NumHosts: 16},
		PacketSize:            32,
		AdaptiveFraction:      0.75,
		LoadBytesPerNsPerHost: 0.02,
		Seed:                  2,
	}
	g, err := NewGenerator(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start(1_000_000)
	net.Engine.Run(1_000_000)
	got := float64(adaptive) / float64(total)
	if math.Abs(got-0.75) > 0.03 {
		t.Fatalf("adaptive fraction %.3f, want ~0.75 (n=%d)", got, total)
	}
}

func TestGeneratorStopsAtHorizon(t *testing.T) {
	net := testNet(t, 3)
	cfg := Config{
		Pattern:               Uniform{NumHosts: 12},
		PacketSize:            32,
		LoadBytesPerNsPerHost: 0.05,
		Seed:                  3,
	}
	g, err := NewGenerator(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start(100_000)
	// Run far beyond the stop time: generation must have ceased and
	// the network fully drained.
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if g.Generated() == 0 {
		t.Fatal("nothing generated")
	}
	var sum uint64
	for _, h := range net.Hosts {
		sum += h.Delivered
	}
	if sum != g.Generated() {
		t.Fatalf("delivered %d != generated %d", sum, g.Generated())
	}
}

func TestGeneratorDeterministicAcrossRuns(t *testing.T) {
	counts := func() uint64 {
		net := testNet(t, 3)
		cfg := Config{
			Pattern:               Uniform{NumHosts: 12},
			PacketSize:            32,
			AdaptiveFraction:      0.5,
			LoadBytesPerNsPerHost: 0.02,
			Seed:                  42,
		}
		g, err := NewGenerator(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g.Start(500_000)
		net.Engine.Run(500_000)
		return g.Generated()
	}
	if a, b := counts(), counts(); a != b {
		t.Fatalf("same seed generated %d vs %d packets", a, b)
	}
}

func TestGeneratorRejectsOversizedPackets(t *testing.T) {
	net := testNet(t, 3)
	cfg := Config{
		Pattern:               Uniform{NumHosts: 12},
		PacketSize:            ib.MTU + 1,
		LoadBytesPerNsPerHost: 0.01,
	}
	if _, err := NewGenerator(net, cfg); err == nil {
		t.Fatal("oversized packets accepted")
	}
}
