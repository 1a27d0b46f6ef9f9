package metrics

import (
	"math"
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
	"ibasim/internal/subnet"
	"ibasim/internal/topology"
	"ibasim/internal/traffic"
)

func TestLatencyStatsMoments(t *testing.T) {
	var s LatencyStats
	for _, v := range []sim.Time{10, 20, 30, 40} {
		s.Add(v)
	}
	if s.Count != 4 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Avg() != 25 {
		t.Fatalf("Avg = %v, want 25", s.Avg())
	}
	if s.Min != 10 || s.Max != 40 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestLatencyStatsEmpty(t *testing.T) {
	var s LatencyStats
	if s.Avg() != 0 {
		t.Fatal("empty stats not zero")
	}
}

func TestLatencyStatsSingle(t *testing.T) {
	var s LatencyStats
	s.Add(7)
	if s.Avg() != 7 || s.Min != 7 || s.Max != 7 {
		t.Fatalf("single-sample stats wrong: %+v", s)
	}
}

// measureNet runs a uniform workload on a small ring and returns the
// collector, for end-to-end metric checks. before, when set, hooks the
// network ahead of the collector's Attach.
func measureNet(t *testing.T, warmup, end sim.Time, load float64, before func(*fabric.Network)) *Collector {
	t.Helper()
	topo, err := topology.Ring(4, 4)
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
	if before != nil {
		before(net)
	}
	col := &Collector{WarmupEnd: warmup, MeasureEnd: end}
	col.Attach(net)
	g, err := traffic.NewGenerator(net, traffic.Config{
		Pattern:               traffic.Uniform{NumHosts: topo.NumHosts()},
		PacketSize:            32,
		AdaptiveFraction:      0.5,
		LoadBytesPerNsPerHost: load,
		Seed:                  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(end)
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	return col
}

func TestCollectorAcceptedMatchesOfferedAtLowLoad(t *testing.T) {
	// Far below saturation, accepted traffic must track offered load.
	const load = 0.005 // B/ns/host; offered/switch = 0.02
	col := measureNet(t, 200_000, 1_200_000, load, nil)
	offered := load * 4
	got := col.AcceptedPerSwitch()
	if math.Abs(got-offered)/offered > 0.10 {
		t.Fatalf("accepted %.5f, want ~%.5f", got, offered)
	}
}

func TestCollectorWarmupExcluded(t *testing.T) {
	col := measureNet(t, 500_000, 1_000_000, 0.005, nil)
	all := measureNet(t, 0, 1_000_000, 0.005, nil)
	if col.Latency.Count >= all.Latency.Count {
		t.Fatalf("warmup window did not reduce sample count: %d vs %d",
			col.Latency.Count, all.Latency.Count)
	}
}

func TestCollectorLatencyPlausible(t *testing.T) {
	col := measureNet(t, 100_000, 600_000, 0.005, nil)
	// A 32 B packet needs at least ~428 ns (one switch) and the ring
	// diameter is 2 switches; queueing should keep the average under a
	// few microseconds at this load.
	if col.Latency.Avg() < 400 || col.Latency.Avg() > 5000 {
		t.Fatalf("avg latency %.0f ns implausible", col.Latency.Avg())
	}
	if col.Latency.Min < 428 {
		t.Fatalf("min latency %v below physical floor", col.Latency.Min)
	}
}

func TestCollectorStringFormatting(t *testing.T) {
	col := measureNet(t, 100_000, 300_000, 0.005, nil)
	if col.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestAttachChainsEarlierHook: a delivery hook installed before the
// collector attaches keeps seeing every delivery.
func TestAttachChainsEarlierHook(t *testing.T) {
	var seen uint64
	col := measureNet(t, 0, 300_000, 0.005, func(net *fabric.Network) {
		net.OnDelivered = func(*ib.Packet) { seen++ }
	})
	if total := col.OutOfOrder + col.OrderedDelivery; seen == 0 || seen != total {
		t.Fatalf("the earlier hook saw %d deliveries, the collector %d", seen, total)
	}
}

func TestAcceptedZeroWithoutWindow(t *testing.T) {
	c := &Collector{WarmupEnd: 100, MeasureEnd: 100}
	if c.AcceptedPerSwitch() != 0 {
		t.Fatal("zero-width window produced traffic")
	}
}

// TestSeqPast32BitsPanics: the collector's per-flow order counter is
// 32 bits wide, so a SeqNo past 2^32-2 is refused rather than wrapped.
func TestSeqPast32BitsPanics(t *testing.T) {
	c := &Collector{numHosts: 2, highestSeq: make([]uint32, 4)}
	c.onDelivered(&ib.Packet{Src: 0, Dst: 1, SeqNo: math.MaxUint32 - 1})
	if c.highestSeq[1] != math.MaxUint32 || c.OrderedDelivery != 1 {
		t.Fatalf("seq 2^32-2: highest %d, ordered %d; want 2^32-1 and 1", c.highestSeq[1], c.OrderedDelivery)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SeqNo 2^32-1 accepted")
		}
	}()
	c.onDelivered(&ib.Packet{Src: 0, Dst: 1, SeqNo: math.MaxUint32})
}
