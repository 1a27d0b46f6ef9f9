package experiments

import (
	"fmt"
	"io"

	"ibasim/internal/routing"
	"ibasim/internal/topology"
	"ibasim/internal/traffic"
)

// Figure3Series is one latency-vs-traffic curve: a fixed percentage of
// adaptive traffic on one topology.
type Figure3Series struct {
	AdaptiveFraction float64
	Points           []SweepPoint
}

// Figure3Result reproduces one panel (one network size) of Figure 3.
type Figure3Result struct {
	Switches int
	// Family names the structured topology family of a Figure3Family
	// panel ("fattree:2,3", "torus:4x4"); empty for the paper's
	// irregular panels, whose output stays byte-identical.
	Family string
	Series []Figure3Series
}

// Figure3Fractions are the paper's adaptive-traffic percentages.
var Figure3Fractions = []float64{0, 0.25, 0.50, 0.75, 1.00}

// Figure3 reproduces Figure 3 for one network size: average packet
// latency versus accepted traffic while the share of adaptive traffic
// sweeps 0%..100%, on a representative topology (the scale's first
// seed), forwarding tables with two routing options, 4 inter-switch
// links, uniform traffic, 32-byte packets.
func Figure3(sc Scale, switches int) (*Figure3Result, error) {
	topo, err := topology.GenerateIrregular(topology.IrregularSpec{
		NumSwitches: switches, HostsPerSwitch: sc.HostsPerSw, InterSwitch: 4, Seed: sc.FirstSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", sc.FirstSeed, err)
	}
	return figure3Panel(sc, topo, nil, "")
}

// figure3Panel runs the Figure 3 protocol on topo, one load sweep per
// adaptive-traffic share, all on one pool, with tables from build (nil
// keeps the up*/down* default). family is the panel header's family
// name, empty for the paper's irregular networks.
func figure3Panel(sc Scale, topo *topology.Topology, build routing.Builder, family string) (*Figure3Result, error) {
	specs := make([]RunSpec, len(Figure3Fractions))
	for i, frac := range Figure3Fractions {
		// Switches stay enhanced throughout; the share of packets
		// requesting adaptive service is what varies (§4.2: the
		// source enables adaptivity per packet).
		specs[i] = sc.Spec(topo, 2, 32, frac, traffic.Uniform{NumHosts: topo.NumHosts()}, sc.FirstSeed, true)
		specs[i].Routing = build
	}
	curves, err := LoadSweeps(specs, DefaultLoads(sc.LoadLo, sc.LoadHi, sc.LoadPoints))
	if err != nil {
		return nil, err
	}
	res := &Figure3Result{Switches: topo.NumSwitches, Family: family}
	for i, frac := range Figure3Fractions {
		res.Series = append(res.Series, Figure3Series{AdaptiveFraction: frac, Points: curves[i]})
	}
	return res, nil
}

// Write prints the panel in a gnuplot-friendly layout, one block per
// adaptive fraction with the paper's axes (accepted bytes/ns/switch,
// latency ns).
func (r *Figure3Result) Write(w io.Writer) error {
	header := fmt.Sprintf("# Figure 3: %d switches, uniform, 32B, 2 routing options\n", r.Switches)
	if r.Family != "" {
		header = fmt.Sprintf("# Figure 3 (%s): %d switches, uniform, 32B, 2 routing options\n", r.Family, r.Switches)
	}
	if _, err := io.WriteString(w, header); err != nil {
		return err
	}
	for _, s := range r.Series {
		if _, err := fmt.Fprintf(w, "\n# adaptive traffic: %.0f%%\n# offered\taccepted\tavg-latency-ns\n", s.AdaptiveFraction*100); err != nil {
			return err
		}
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s\t%s\t%.0f\n", fmtFloat(p.Offered), fmtFloat(p.Accepted), p.AvgLatency); err != nil {
				return err
			}
		}
	}
	// The paper's headline per-panel number: throughput gain of 100%
	// adaptive over 0%.
	det := Throughput(r.Series[0].Points)
	ada := Throughput(r.Series[len(r.Series)-1].Points)
	factor := 0.0
	if det > 0 {
		factor = ada / det
	}
	_, err := fmt.Fprintf(w, "\n# throughput: deterministic=%s adaptive=%s factor=%.2f\n",
		fmtFloat(det), fmtFloat(ada), factor)
	return err
}
