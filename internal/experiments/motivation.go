package experiments

import (
	"fmt"
	"io"

	"ibasim/internal/traffic"
)

// MotivationRow compares the routing schemes of the paper's
// introduction on one network size: deterministic up*/down*,
// source-selected multipath with 2 and 4 alternative paths ("by using
// alternative paths selected at the source node, the overall network
// performance is hardly improved"), and the proposed fully adaptive
// scheme. Values are saturation throughputs in bytes/ns/switch,
// averaged over the scale's topology set.
type MotivationRow struct {
	Switches      int
	Deterministic float64
	SourcePath2   float64
	SourcePath4   float64
	FullyAdaptive float64
}

// Motivation runs the comparison for every size in the scale with
// uniform 32-byte traffic, 4 inter-switch links, two routing options
// for FA (the Figure 3 setup). Every sweep runs on one pool.
func Motivation(sc Scale) ([]MotivationRow, error) {
	var specs []RunSpec // the row's four schemes, per size and topology
	for _, size := range sc.Sizes {
		topos, err := sc.topoSet(size, 4)
		if err != nil {
			return nil, err
		}
		for ti, topo := range topos {
			seed := sc.FirstSeed + uint64(ti)
			u := traffic.Uniform{NumHosts: topo.NumHosts()}

			det := sc.Spec(topo, 2, 32, 0, u, seed, false)
			fa := sc.Spec(topo, 2, 32, 1, u, seed, true)
			sp2 := sc.Spec(topo, 2, 32, 0, u, seed, false)
			sp2.SourceMultipath = 2
			sp2.Fabric.SourceMultipath = 2
			sp4 := sc.Spec(topo, 4, 32, 0, u, seed, false)
			sp4.SourceMultipath = 4
			sp4.Fabric.SourceMultipath = 4
			specs = append(specs, det, sp2, sp4, fa)
		}
	}
	curves, err := LoadSweeps(specs, DefaultLoads(sc.LoadLo, sc.LoadHi, sc.LoadPoints))
	if err != nil {
		return nil, err
	}
	var rows []MotivationRow
	for _, size := range sc.Sizes {
		row := MotivationRow{Switches: size}
		sums := []*float64{&row.Deterministic, &row.SourcePath2, &row.SourcePath4, &row.FullyAdaptive}
		for range sc.Topologies { // topoSet's count for every size
			for _, into := range sums {
				*into += Throughput(curves[0])
				curves = curves[1:]
			}
		}
		for _, into := range sums {
			*into /= float64(sc.Topologies)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteMotivation prints the comparison with per-scheme factors over
// the deterministic baseline.
func WriteMotivation(w io.Writer, rows []MotivationRow) error {
	if _, err := fmt.Fprintf(w, "# Motivation: saturation throughput by routing scheme (bytes/ns/switch)\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-4s %12s %12s %12s %12s %8s %8s %8s\n",
		"sw", "determ.", "src-path-2", "src-path-4", "fully-adapt",
		"x(sp2)", "x(sp4)", "x(FA)"); err != nil {
		return err
	}
	for _, r := range rows {
		f := func(v float64) float64 {
			if r.Deterministic <= 0 {
				return 0
			}
			return v / r.Deterministic
		}
		if _, err := fmt.Fprintf(w, "%-4d %12.4f %12.4f %12.4f %12.4f %8.2f %8.2f %8.2f\n",
			r.Switches, r.Deterministic, r.SourcePath2, r.SourcePath4, r.FullyAdaptive,
			f(r.SourcePath2), f(r.SourcePath4), f(r.FullyAdaptive)); err != nil {
			return err
		}
	}
	return nil
}
