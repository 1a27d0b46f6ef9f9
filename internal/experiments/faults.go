package experiments

import (
	"fmt"
	"io"

	"ibasim/internal/faults"
	"ibasim/internal/traffic"
)

// FaultRow is one campaign run's degraded-mode summary.
type FaultRow struct {
	Size     int
	Seed     uint64
	Accepted float64
	Degraded DegradedStats
}

// FaultCampaign runs the campaign on every network size of the scale,
// over the scale's topology seed set, and reports each run's
// degraded-mode behavior: drops by reason, retries, losses, staged
// recovery latency, and the watchdog verdict. The workload is uniform
// traffic at the scale's low load so the fabric has headroom to
// absorb re-routed packets (EXPERIMENTS.md records the methodology).
// The rows' runs share one pool: each owns its topology, and fault
// injection only reads the shared campaign.
func FaultCampaign(sc Scale, links, mr int, c *faults.Campaign, faultSeed uint64) ([]FaultRow, error) {
	var rows []FaultRow
	var specs []RunSpec
	for _, size := range sc.Sizes {
		topoSet, err := sc.topoSet(size, links)
		if err != nil {
			return nil, err
		}
		for i, topo := range topoSet {
			seed := sc.FirstSeed + uint64(i)
			spec := sc.Spec(topo, mr, sc.PacketSizes[0], 1.0,
				traffic.Uniform{NumHosts: topo.NumHosts()}, seed, true)
			spec.Faults = c
			spec.FaultSeed = faultSeed + seed
			rows = append(rows, FaultRow{Size: size, Seed: seed})
			specs = append(specs, spec)
		}
	}
	return runParallel(len(rows), func(i int) (FaultRow, error) {
		r := rows[i]
		res, err := Run(specs[i])
		if err != nil {
			return r, fmt.Errorf("size %d seed %d: %w", r.Size, r.Seed, err)
		}
		r.Accepted, r.Degraded = res.AcceptedPerSwitch, res.Degraded
		return r, nil
	})
}

// WriteFaultTable prints campaign rows as tab-separated text.
func WriteFaultTable(w io.Writer, rows []FaultRow) error {
	if _, err := fmt.Fprintf(w, "# size\tseed\taccepted\tfaults\treconfigs\tdropped\tretries\tlost\trecovery-ns\twd-violations\n"); err != nil {
		return err
	}
	for _, r := range rows {
		d := r.Degraded
		if _, err := fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Size, r.Seed, fmtFloat(r.Accepted), d.FaultsInjected, d.Reconfigs,
			d.Dropped(), d.Retries, d.Lost, d.RecoveryLatencyNs, d.WatchdogViolations); err != nil {
			return err
		}
	}
	return nil
}
