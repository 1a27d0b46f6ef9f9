package experiments

import (
	"runtime"
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
	"ibasim/internal/topology"
	"ibasim/internal/traffic"
)

// maxBytesPerGeneratedPacket bounds what a saturated run allocates per
// packet it generates. A run past saturation keeps nearly every packet
// it generates waiting in an unbounded source queue, so this is the
// slope of its peak memory. A packet that waits costs a delta-coded
// source-queue entry of one or two bytes, the rest of it replayed from
// its host's traffic stream; only the packets at the head of their
// queue, on a wire or in a switch buffer take a 64-byte ib.Packet, and
// a delivered packet's memory is reused for the next. With the run's
// share of everything else that measured 10.3 bytes in all on this
// workload. Without recycling it measured 16.1 (every packet that
// reached the head of its queue took a fresh 64 bytes), and an 8-byte
// entry adds about 7 more; the bound leaves about 25 % above the
// measured figure for the run's other allocations to move and still
// fails either.
const maxBytesPerGeneratedPacket = 13

// hotSpotSpec is the benchmark's saturated hot-spot workload: 16
// switches, 30 % of traffic to one host, 0.15 B/ns/host of 32-byte
// all-adaptive packets, here with a measurement window of measure ns.
func hotSpotSpec(t *testing.T, measure sim.Time) RunSpec {
	t.Helper()
	topo, err := topology.GenerateIrregular(topology.IrregularSpec{NumSwitches: 16, HostsPerSwitch: 4, InterSwitch: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := traffic.NewHotSpot(topo.NumHosts(), 0.3, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	sc := QuickScale()
	sc.Warmup, sc.Measure, sc.DrainGrace = 20_000, measure, 20_000
	spec := sc.Spec(topo, 2, 32, 1, hot, 1, true)
	spec.Traffic.LoadBytesPerNsPerHost = 0.15
	return spec
}

// TestHotSpotBytesPerGeneratedPacket gates heap allocation per
// generated packet on the hot-spot workload with a 0.5 ms measurement
// window. TotalAlloc counts every byte the run allocated, freed or
// not, so the figure does not depend on when the collector ran.
func TestHotSpotBytesPerGeneratedPacket(t *testing.T) {
	spec := hotSpotSpec(t, 500_000)
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

// pktBlock is how many packets the fabric carves per slab block.
const pktBlock = 512

// TestHotSpotCarvedPacketsStayInFlight gates packet recycling on the
// hot-spot workload: the packets the network carves from slab blocks
// (its packet memory) must stay at most the peak number alive at once
// plus one block, and must not grow from a 1 ms to a 4 ms measurement
// window. Without recycling every packet that reached the head of its
// source queue is carved, about 25,000 more per extra millisecond.
//
// The alive count is read from the hosts' counters, not from the
// packet pool: the packets injected and not yet delivered (on a wire or
// in a switch buffer; this run drops nothing) plus one per non-empty
// source queue (its head). Between two deliveries it can only rise, so
// sampling it as each delivery starts, and once at the end, finds its
// peak.
func TestHotSpotCarvedPacketsStayInFlight(t *testing.T) {
	run := func(measure sim.Time) (carved, peak uint64) {
		var net *fabric.Network
		alive := func() uint64 {
			var n uint64
			for _, h := range net.Hosts {
				n += h.Injected - h.Delivered
				if h.QueueLen() > 0 {
					n++
				}
			}
			return n
		}
		_, err := RunObserved(hotSpotSpec(t, measure), func(n *fabric.Network) {
			net = n
			prev := n.OnDelivered
			n.OnDelivered = func(p *ib.Packet) {
				// Host.Delivered already counts p, which is still alive.
				peak = max(peak, alive()+1)
				if prev != nil {
					prev(p)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if f := net.FaultTotals(); f.Dropped() != 0 {
			t.Fatalf("%d packets dropped; the alive count assumes none", f.Dropped())
		}
		return net.PacketsCarved(), max(peak, alive())
	}
	carved1, peak1 := run(1_000_000)
	carved4, peak4 := run(4_000_000)
	t.Logf("1 ms window: %d packets carved, %d alive at peak; 4 ms: %d carved, %d alive at peak",
		carved1, peak1, carved4, peak4)
	for _, r := range []struct{ carved, peak uint64 }{{carved1, peak1}, {carved4, peak4}} {
		if r.carved > r.peak+pktBlock {
			t.Errorf("%d packets carved with at most %d alive at once: more than one %d-packet block beyond the peak",
				r.carved, r.peak, pktBlock)
		}
	}
	if carved4 > carved1+pktBlock {
		t.Errorf("packets carved grew from %d with a 1 ms window to %d with a 4 ms window", carved1, carved4)
	}
}
