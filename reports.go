package ibasim

import (
	"fmt"
	"io"

	"ibasim/internal/experiments"
)

// ScaleName selects how much work the paper-reproduction harnesses do.
type ScaleName string

// Scales. Quick runs in seconds to a couple of minutes and preserves
// every qualitative comparison; Full approximates the paper's protocol
// (10 topologies per size, sizes 8-64, both packet sizes) and takes
// hours.
const (
	Quick ScaleName = "quick"
	Full  ScaleName = "full"
)

// scaleFor resolves a ScaleName ("" is Quick) to its scale and Table 1
// patterns.
func scaleFor(name ScaleName) (experiments.Scale, []experiments.PatternSpec, error) {
	if name == "" {
		name = Quick
	}
	sc, patterns, err := experiments.Preset(string(name))
	if err != nil {
		return sc, nil, fmt.Errorf("ibasim: %w", err)
	}
	return sc, patterns, nil
}

// RunFigure3 regenerates one panel of the paper's Figure 3 (average
// packet latency vs accepted traffic for 0-100% adaptive traffic) for
// the given network size and writes the series to w.
func RunFigure3(scale ScaleName, switches int, w io.Writer) error {
	sc, _, err := scaleFor(scale)
	if err != nil {
		return err
	}
	res, err := experiments.Figure3(sc, switches)
	if err != nil {
		return err
	}
	return res.Write(w)
}

// RunTable1 regenerates the paper's Table 1 (min/max/avg throughput
// increase of 100% adaptive traffic over deterministic routing) for
// the given connectivity and routing-option count, writing rows to w.
// Patterns and packet sizes follow the scale (quick: uniform 32 B;
// full: the paper's five patterns and both packet sizes).
func RunTable1(scale ScaleName, links, mr int, w io.Writer) error {
	sc, patterns, err := scaleFor(scale)
	if err != nil {
		return err
	}
	rows, err := experiments.Table1(sc, links, mr, patterns, sc.PacketSizes)
	if err != nil {
		return err
	}
	return experiments.WriteTable1(w, rows)
}

// RunTable2 regenerates the paper's Table 2 (percentage of
// switch/destination pairs with k routing options) for the given
// connectivity, MR = 2..maxMR, writing rows to w.
func RunTable2(scale ScaleName, links, maxMR int, w io.Writer) error {
	sc, _, err := scaleFor(scale)
	if err != nil {
		return err
	}
	rows, err := experiments.Table2(sc, links, maxMR)
	if err != nil {
		return err
	}
	return experiments.WriteTable2(w, rows)
}
