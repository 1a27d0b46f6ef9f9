package fabric

import (
	"fmt"
	"sort"
)

// LinkStat reports one directed inter-switch channel's activity.
type LinkStat struct {
	From, To    int     // switch IDs
	Utilization float64 // busy fraction of elapsed simulated time
	Packets     uint64
}

// LinkStats returns per-channel utilization for every directed
// inter-switch link, sorted descending by utilization. It reads the
// engine clock, so call it after (or during) a run.
func (n *Network) LinkStats() []LinkStat {
	now := float64(n.Engine.Now())
	var out []LinkStat
	for _, sw := range n.Switches {
		for _, o := range sw.out {
			if o == nil || o.peerSwitch == nil {
				continue
			}
			u := 0.0
			if now > 0 {
				u = float64(o.busyAccum) / now
			}
			out = append(out, LinkStat{
				From:        sw.id,
				To:          o.peerSwitch.id,
				Utilization: u,
				Packets:     o.txPackets,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Utilization != out[j].Utilization {
			return out[i].Utilization > out[j].Utilization
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// UtilizationSummary aggregates LinkStats into the numbers a report
// needs: mean and peak inter-switch utilization, plus the imbalance
// ratio (peak/mean) that exposes up*/down* root congestion.
type UtilizationSummary struct {
	Mean, Peak float64
	Imbalance  float64
}

// Utilization computes the summary over all directed inter-switch
// links.
func (n *Network) Utilization() UtilizationSummary {
	stats := n.LinkStats()
	if len(stats) == 0 {
		return UtilizationSummary{}
	}
	var sum, peak float64
	for _, s := range stats {
		sum += s.Utilization
		if s.Utilization > peak {
			peak = s.Utilization
		}
	}
	mean := sum / float64(len(stats))
	imb := 0.0
	if mean > 0 {
		imb = peak / mean
	}
	return UtilizationSummary{Mean: mean, Peak: peak, Imbalance: imb}
}

// String formats the summary.
func (u UtilizationSummary) String() string {
	return fmt.Sprintf("links: mean %.1f%%, peak %.1f%%, imbalance %.2fx",
		100*u.Mean, 100*u.Peak, u.Imbalance)
}
