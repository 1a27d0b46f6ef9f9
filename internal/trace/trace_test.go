package trace

import (
	"bytes"
	"strings"
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
	"ibasim/internal/subnet"
	"ibasim/internal/topology"
)

func tracedNet(t *testing.T, capacity int) (*fabric.Network, *Recorder) {
	t.Helper()
	topo, err := topology.GenerateIrregular(topology.IrregularSpec{
		NumSwitches: 8, HostsPerSwitch: 4, InterSwitch: 4, Seed: 1,
	})
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
	rec := NewRecorder(capacity)
	rec.Attach(net)
	return net, rec
}

func TestRecorderCapturesLifecycle(t *testing.T) {
	net, rec := tracedNet(t, 1024)
	pkt := net.NewPacket(0, 31, 32, true)
	net.Hosts[0].Inject(pkt)
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	if len(events) < 3 { // created + >=1 hop + delivered
		t.Fatalf("only %d events", len(events))
	}
	if events[0].Kind != Created {
		t.Fatalf("first event %v", events[0].Kind)
	}
	last := events[len(events)-1]
	if last.Kind != Delivered {
		t.Fatalf("last event %v", last.Kind)
	}
	hops := 0
	for _, e := range events {
		if e.Kind == Hop {
			hops++
		}
	}
	if hops != int(pkt.Hops) {
		t.Fatalf("traced %d hops, packet reports %d", hops, pkt.Hops)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	net, rec := tracedNet(t, 8)
	r := sim.NewRNG(2)
	for i := 0; i < 100; i++ {
		src := r.Intn(32)
		dst := r.Intn(32)
		if dst == src {
			dst = (dst + 1) % 32
		}
		net.Hosts[src].Inject(net.NewPacket(src, dst, 32, true))
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Events()); got != 8 {
		t.Fatalf("retained %d events with capacity 8", got)
	}
	if rec.Total() <= 8 {
		t.Fatalf("Total = %d, want > capacity", rec.Total())
	}
	// Retained events must be in non-decreasing time order.
	events := rec.Events()
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("ring events out of order")
		}
	}
}

func TestRecorderChainsExistingCallbacks(t *testing.T) {
	net, _ := tracedNet(t, 16)
	// tracedNet attached a recorder; attach a second observer BEFORE
	// it would be the realistic order, so instead attach another
	// recorder on top and verify both see events.
	rec2 := NewRecorder(16)
	rec2.Attach(net)
	net.Hosts[0].Inject(net.NewPacket(0, 31, 32, true))
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if rec2.Total() == 0 {
		t.Fatal("second recorder saw nothing")
	}
}

func TestAdaptiveShare(t *testing.T) {
	net, rec := tracedNet(t, 4096)
	r := sim.NewRNG(3)
	for i := 0; i < 500; i++ {
		src := r.Intn(32)
		dst := r.Intn(32)
		if dst == src {
			dst = (dst + 1) % 32
		}
		net.Hosts[src].Inject(net.NewPacket(src, dst, 32, true))
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	share := rec.AdaptiveShare()
	if share <= 0 || share > 1 {
		t.Fatalf("AdaptiveShare = %v", share)
	}
}

func TestDumpFormat(t *testing.T) {
	net, rec := tracedNet(t, 64)
	net.Hosts[0].Inject(net.NewPacket(0, 31, 32, true))
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"created", "hop", "delivered", "pkt="} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}
