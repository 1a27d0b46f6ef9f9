// Package metrics accounts simulation results the way the paper
// reports them: average packet latency (generation to delivery, ns)
// versus accepted traffic (bytes per ns per switch), with a warm-up
// window excluded from both.
package metrics

import (
	"fmt"
	"math"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/reorder"
	"ibasim/internal/sim"
)

// LatencyStats accumulates streaming latency count, sum and extremes.
type LatencyStats struct {
	Count uint64
	Sum   float64
	Min   sim.Time
	Max   sim.Time
}

// Add records one latency sample.
func (s *LatencyStats) Add(l sim.Time) {
	if s.Count == 0 || l < s.Min {
		s.Min = l
	}
	if l > s.Max {
		s.Max = l
	}
	s.Count++
	s.Sum += float64(l)
}

// Avg returns the mean latency in nanoseconds (0 with no samples).
func (s *LatencyStats) Avg() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Collector hooks a network's delivery callback and accumulates the
// paper's two observables over the measurement window. Packets
// created before the warm-up end are ignored entirely; accepted
// traffic counts bytes delivered inside [WarmupEnd, MeasureEnd].
type Collector struct {
	WarmupEnd  sim.Time
	MeasureEnd sim.Time

	numSwitches int

	Latency        LatencyStats
	DeliveredBytes int64

	// Hist buckets every measured latency for quantile reporting.
	Hist Histogram

	// Out-of-order accounting (§1: adaptive routing trades in-order
	// delivery for throughput; this quantifies the trade). A delivery
	// is out of order when a higher SeqNo of the same (src, dst) flow
	// was delivered earlier.
	OutOfOrder      uint64
	OrderedDelivery uint64

	// highestSeq holds, in slot src*numHosts+dst, the flow's highest
	// delivered SeqNo plus one (zero = flow unseen). Attach sizes it
	// from the host count. A flow carries at most 2^32-1 packets, so
	// the count fits 32 bits; onDelivered panics past that.
	highestSeq []uint32
	numHosts   int

	// Reorder, when set before Attach, simulates destination-side
	// reordering (§1's sketch): every delivery passes through the
	// buffer and its occupancy/delay statistics quantify what
	// restoring order on top of adaptive routing would cost.
	Reorder *reorder.Buffer
}

// Attach registers the collector on the network. It must be called
// before traffic starts; it chains after any OnDelivered callback
// already present.
func (c *Collector) Attach(net *fabric.Network) {
	c.numSwitches = net.Topo.NumSwitches
	c.numHosts = net.Topo.NumHosts()
	c.highestSeq = make([]uint32, c.numHosts*c.numHosts)
	prev := net.OnDelivered
	if prev == nil {
		net.OnDelivered = c.onDelivered
		return
	}
	net.OnDelivered = func(p *ib.Packet) {
		prev(p)
		c.onDelivered(p)
	}
}

// Finalize closes the reorder buffer's peak-occupancy accounting.
// Call once, after the run completes and before reading results.
func (c *Collector) Finalize() {
	if c.Reorder != nil {
		c.Reorder.Finalize()
	}
}

func (c *Collector) onDelivered(p *ib.Packet) {
	now := p.DeliveredAt
	if now >= c.WarmupEnd && now < c.MeasureEnd {
		c.DeliveredBytes += int64(p.Size)
	}
	// Latency is attributed to packets *created* in the window so a
	// tail of slow packets is not silently dropped from the average.
	if p.CreatedAt >= c.WarmupEnd && p.CreatedAt < c.MeasureEnd {
		l := p.Latency()
		c.Latency.Add(l)
		c.Hist.Add(l)
	}
	// Order tracking covers every delivery (not only the window) so
	// flows spanning the warm-up boundary are judged correctly.
	if p.SeqNo >= math.MaxUint32 {
		panic(fmt.Sprintf("metrics: %v: a flow carries at most 2^32-1 packets", p))
	}
	di := int(p.Src)*c.numHosts + int(p.Dst)
	if last := c.highestSeq[di]; last != 0 && uint32(p.SeqNo) < last-1 {
		c.OutOfOrder++
	} else {
		c.highestSeq[di] = uint32(p.SeqNo) + 1
		c.OrderedDelivery++
	}
	if c.Reorder != nil {
		c.Reorder.Deliver(int(p.Src), int(p.Dst), p.SeqNo, now)
	}
}

// OutOfOrderFraction returns the share of deliveries that arrived
// after a later packet of their flow.
func (c *Collector) OutOfOrderFraction() float64 {
	total := c.OutOfOrder + c.OrderedDelivery
	if total == 0 {
		return 0
	}
	return float64(c.OutOfOrder) / float64(total)
}

// AcceptedPerSwitch returns the accepted traffic in bytes/ns/switch
// over the measurement window.
func (c *Collector) AcceptedPerSwitch() float64 {
	window := float64(c.MeasureEnd - c.WarmupEnd)
	if window <= 0 || c.numSwitches == 0 {
		return 0
	}
	return float64(c.DeliveredBytes) / window / float64(c.numSwitches)
}

// String summarizes the collected window.
func (c *Collector) String() string {
	return fmt.Sprintf("accepted=%.5f B/ns/sw avgLat=%.0f ns (n=%d)",
		c.AcceptedPerSwitch(), c.Latency.Avg(), c.Latency.Count)
}
