package experiments

import (
	"runtime"
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/sim"
	"ibasim/internal/topology"
	"ibasim/internal/traffic"
)

// maxBytesPerGeneratedPacket bounds what a saturated run allocates per
// packet it generates. A run past saturation keeps nearly every packet
// alive until it ends (source queues are unbounded), so this is the
// slope of its peak memory. A packet that waits costs a delta-coded
// source-queue entry of one or two bytes, the rest of it replayed from
// its host's traffic stream; only the packets that reach the head of
// their queue, about a tenth here, take a 64-byte ib.Packet. With the
// run's share of everything else that measured 16.1 bytes in all on
// this workload. An 8-byte entry costs 23.3; the bound leaves about
// 25 % above the measured figure for the run's other allocations to
// move and still fails an 8-byte entry.
const maxBytesPerGeneratedPacket = 20

// TestHotSpotBytesPerGeneratedPacket gates heap allocation per
// generated packet on the benchmark's saturated hot-spot workload: 16
// switches, 30 % of traffic to one host, 0.15 B/ns/host of 32-byte
// all-adaptive packets, here with a 0.5 ms measurement window.
// TotalAlloc counts every byte the run allocated, freed or not, so the
// figure does not depend on when the collector ran.
func TestHotSpotBytesPerGeneratedPacket(t *testing.T) {
	topo, err := topology.GenerateIrregular(topology.IrregularSpec{NumSwitches: 16, HostsPerSwitch: 4, InterSwitch: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := traffic.NewHotSpot(topo.NumHosts(), 0.3, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	sc := QuickScale()
	sc.Warmup, sc.Measure, sc.DrainGrace = 20_000, 500_000, 20_000
	spec := sc.Spec(topo, 2, 32, 1, hot, 1, true)
	spec.Traffic.LoadBytesPerNsPerHost = 0.15

	var net *fabric.Network
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := RunObserved(spec, func(n *fabric.Network) { net = n }); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	generated := net.Created() // no packet is injected or retried here

	// The workload is deterministic; a different count means the gate
	// no longer measures the run it documents.
	const wantGenerated = 156_377
	if generated != wantGenerated {
		t.Fatalf("run generated %d packets, want %d", generated, wantGenerated)
	}
	perPacket := float64(after.TotalAlloc-before.TotalAlloc) / float64(generated)
	t.Logf("%.1f bytes allocated per generated packet (%d packets)", perPacket, generated)
	if perPacket > maxBytesPerGeneratedPacket {
		t.Fatalf("%.1f bytes allocated per generated packet, want at most %d", perPacket, maxBytesPerGeneratedPacket)
	}
}
