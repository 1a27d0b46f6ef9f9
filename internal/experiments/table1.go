package experiments

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"ibasim/internal/sim"
	"ibasim/internal/traffic"
)

// PatternSpec names a traffic pattern for the harness. It serializes
// into campaign job specs, so the JSON field names are part of the
// canonical job encoding.
type PatternSpec struct {
	Kind     string  `json:"kind"`               // "uniform", "bit-reversal", "hot-spot"
	Fraction float64 `json:"fraction,omitempty"` // hot-spot share (0.05, 0.10, 0.20)
}

// ParsePattern reads the CLI/campaign string form of a pattern:
// "uniform", "bit-reversal", or "hot-spot:F" with F the hot fraction.
func ParsePattern(s string) (PatternSpec, error) {
	switch {
	case s == "uniform" || s == "bit-reversal":
		return PatternSpec{Kind: s}, nil
	case strings.HasPrefix(s, "hot-spot:"):
		f, err := strconv.ParseFloat(strings.TrimPrefix(s, "hot-spot:"), 64)
		if err != nil {
			return PatternSpec{}, fmt.Errorf("experiments: bad hot-spot fraction in %q", s)
		}
		ps := PatternSpec{Kind: "hot-spot", Fraction: f}
		if err := ps.validate(); err != nil {
			return PatternSpec{}, fmt.Errorf("experiments: %w", err)
		}
		return ps, nil
	}
	return PatternSpec{}, fmt.Errorf("experiments: unknown pattern %q", s)
}

// validate is the one rule every way into a run applies to a pattern
// (ParsePattern, Build, JobSpec): a known kind and, for a hot-spot, a
// fraction in (0,1], NaN refused.
func (ps PatternSpec) validate() error {
	switch ps.Kind {
	case "uniform", "bit-reversal":
		return nil
	case "hot-spot":
		if math.IsNaN(ps.Fraction) || ps.Fraction <= 0 || ps.Fraction > 1 {
			return fmt.Errorf("hot-spot fraction %v out of (0,1]", ps.Fraction)
		}
		return nil
	}
	return fmt.Errorf("pattern %q unknown", ps.Kind)
}

func (ps PatternSpec) String() string {
	if ps.Kind == "hot-spot" {
		return fmt.Sprintf("hot-spot-%d%%", int(ps.Fraction*100+0.5))
	}
	return ps.Kind
}

// Build instantiates the pattern for a host count. The hot host is
// drawn from the run seed, as the paper randomly selects it.
func (ps PatternSpec) Build(numHosts int, seed uint64) (traffic.Pattern, error) {
	switch ps.Kind {
	case "uniform":
		return traffic.Uniform{NumHosts: numHosts}, nil
	case "bit-reversal":
		return traffic.NewBitReversal(numHosts)
	case "hot-spot":
		if err := ps.validate(); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		return traffic.NewHotSpot(numHosts, ps.Fraction, sim.NewRNG(seed^0x484F54))
	default:
		return nil, fmt.Errorf("experiments: unknown pattern %q", ps.Kind)
	}
}

// Table1Patterns is the paper's pattern list for Table 1 (left).
var Table1Patterns = []PatternSpec{
	{Kind: "uniform"},
	{Kind: "bit-reversal"},
	{Kind: "hot-spot", Fraction: 0.05},
	{Kind: "hot-spot", Fraction: 0.10},
	{Kind: "hot-spot", Fraction: 0.20},
}

// Table1Row is one row of Table 1: min/max/avg throughput-increase
// factor of 100% adaptive traffic over the deterministic baseline,
// across a set of random topologies.
type Table1Row struct {
	Switches   int
	Links      int
	MR         int
	PacketSize int
	Pattern    string
	Min, Max   float64
	Avg        float64
	Factors    []float64
}

// Table1 computes throughput-increase rows for every network size in
// the scale, at the given connectivity (links per switch) and routing
// options (MR), for the given patterns and packet sizes. For each
// topology it sweeps offered load twice — plain deterministic switches
// vs enhanced switches with 100% adaptive traffic — and takes the
// ratio of saturation throughputs. Every sweep of every row runs on
// one pool, and the zero-throughput check comes after all of them: a
// later row's run error wins over an earlier row's zero deterministic
// throughput.
func Table1(sc Scale, links, mr int, patterns []PatternSpec, pktSizes []int) ([]Table1Row, error) {
	var rows []Table1Row
	var specs []RunSpec // deterministic, adaptive, per row and topology
	for _, size := range sc.Sizes {
		topos, err := sc.topoSet(size, links)
		if err != nil {
			return nil, err
		}
		for _, pkt := range pktSizes {
			for _, ps := range patterns {
				rows = append(rows, Table1Row{
					Switches: size, Links: links, MR: mr,
					PacketSize: pkt, Pattern: ps.String(),
					Min: -1,
				})
				for ti, topo := range topos {
					seed := sc.FirstSeed + uint64(ti)
					pattern, err := ps.Build(topo.NumHosts(), seed)
					if err != nil {
						return nil, err
					}
					specs = append(specs,
						sc.Spec(topo, mr, pkt, 0, pattern, seed, false),
						sc.Spec(topo, mr, pkt, 1, pattern, seed, true))
				}
			}
		}
	}
	curves, err := LoadSweeps(specs, DefaultLoads(sc.LoadLo, sc.LoadHi, sc.LoadPoints))
	if err != nil {
		return nil, err
	}
	for i := range rows {
		row := &rows[i]
		for ti := range sc.Topologies { // topoSet's count for every size
			dt, at := Throughput(curves[0]), Throughput(curves[1])
			curves = curves[2:]
			if dt <= 0 {
				return nil, fmt.Errorf("experiments: zero deterministic throughput (size %d seed %d)", row.Switches, sc.FirstSeed+uint64(ti))
			}
			f := at / dt
			row.Factors = append(row.Factors, f)
			if row.Min < 0 || f < row.Min {
				row.Min = f
			}
			if f > row.Max {
				row.Max = f
			}
			row.Avg += f
		}
		row.Avg /= float64(len(row.Factors))
	}
	return rows, nil
}

// WriteTable1 prints rows in the paper's layout.
func WriteTable1(w io.Writer, rows []Table1Row) error {
	if _, err := fmt.Fprintf(w, "# Table 1: throughput increase factor (100%% adaptive vs deterministic)\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-4s %-6s %-3s %-5s %-14s %8s %8s %8s\n",
		"sw", "links", "MR", "bytes", "pattern", "min", "max", "avg"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-4d %-6d %-3d %-5d %-14s %8.2f %8.2f %8.2f\n",
			r.Switches, r.Links, r.MR, r.PacketSize, r.Pattern, r.Min, r.Max, r.Avg); err != nil {
			return err
		}
	}
	return nil
}
