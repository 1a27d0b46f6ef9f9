package experiments

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"ibasim/internal/topology"
	"ibasim/internal/traffic"
)

// tinyScale keeps experiment smoke tests fast while preserving the
// qualitative comparisons.
func tinyScale() Scale {
	sc := QuickScale()
	sc.Sizes = []int{8}
	sc.Topologies = 2
	sc.LoadPoints = 4
	sc.Warmup = 20_000
	sc.Measure = 80_000
	sc.DrainGrace = 20_000
	sc.LoadLo = 0.01
	sc.LoadHi = 0.30 // push past saturation so Throughput is meaningful
	return sc
}

func TestRunProducesTraffic(t *testing.T) {
	sc := tinyScale()
	topo := topology.MustGenerateIrregular(topology.IrregularSpec{
		NumSwitches: 8, HostsPerSwitch: 4, InterSwitch: 4, Seed: 1,
	})
	spec := sc.Spec(topo, 2, 32, 1, traffic.Uniform{NumHosts: topo.NumHosts()}, 1, true)
	spec.Traffic.LoadBytesPerNsPerHost = 0.01
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsMeasured == 0 {
		t.Fatal("no packets measured")
	}
	if res.AcceptedPerSwitch <= 0 {
		t.Fatal("no accepted traffic")
	}
	if res.AvgLatencyNs < 400 {
		t.Fatalf("latency %v below physical floor", res.AvgLatencyNs)
	}
}

func TestRunDeterministicReproducible(t *testing.T) {
	sc := tinyScale()
	topo := topology.MustGenerateIrregular(topology.IrregularSpec{
		NumSwitches: 8, HostsPerSwitch: 4, InterSwitch: 4, Seed: 2,
	})
	spec := sc.Spec(topo, 2, 32, 0.5, traffic.Uniform{NumHosts: topo.NumHosts()}, 5, true)
	spec.Traffic.LoadBytesPerNsPerHost = 0.02
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical specs diverged:\n%+v\n%+v", a, b)
	}
}

func TestAcceptedTracksOfferedBelowSaturation(t *testing.T) {
	sc := tinyScale()
	topo := topology.MustGenerateIrregular(topology.IrregularSpec{
		NumSwitches: 8, HostsPerSwitch: 4, InterSwitch: 4, Seed: 3,
	})
	spec := sc.Spec(topo, 2, 32, 0, traffic.Uniform{NumHosts: topo.NumHosts()}, 1, false)
	curves, err := LoadSweeps([]RunSpec{spec}, []float64{0.005, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	pts := curves[0]
	for _, p := range pts {
		if p.Accepted < 0.85*p.Offered {
			t.Fatalf("below saturation accepted %.4f << offered %.4f", p.Accepted, p.Offered)
		}
	}
	if pts[1].AvgLatency < pts[0].AvgLatency*0.8 {
		t.Fatalf("latency decreased sharply with load: %v -> %v", pts[0].AvgLatency, pts[1].AvgLatency)
	}
}

func TestThroughputHelpers(t *testing.T) {
	pts := []SweepPoint{{Accepted: 0.1}, {Accepted: 0.3}, {Accepted: 0.25}}
	if Throughput(pts) != 0.3 {
		t.Fatalf("Throughput = %v", Throughput(pts))
	}
	if Throughput(nil) != 0 {
		t.Fatal("Throughput(nil) != 0")
	}
	loads := DefaultLoads(0.01, 0.16, 5)
	if len(loads) != 5 || loads[0] != 0.01 {
		t.Fatalf("loads = %v", loads)
	}
	if loads[4] < 0.159 || loads[4] > 0.161 {
		t.Fatalf("geometric grid endpoint %v, want ~0.16", loads[4])
	}
}

func TestLmcFor(t *testing.T) {
	cases := map[int]uint{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3}
	for mr, want := range cases {
		if got := lmcFor(mr); got != want {
			t.Fatalf("lmcFor(%d) = %d, want %d", mr, got, want)
		}
	}
}

// TestAdaptiveBeatsDeterministic8Switches is the paper's core claim at
// smoke-test scale: enhanced switches with 100% adaptive traffic reach
// at least the deterministic baseline's throughput (the paper finds
// ~1.2x at 8 switches).
func TestAdaptiveBeatsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sc := tinyScale()
	topo := topology.MustGenerateIrregular(topology.IrregularSpec{
		NumSwitches: 8, HostsPerSwitch: 4, InterSwitch: 4, Seed: 1,
	})
	loads := DefaultLoads(sc.LoadLo, sc.LoadHi, sc.LoadPoints)
	u := traffic.Uniform{NumHosts: topo.NumHosts()}
	curves, err := LoadSweeps([]RunSpec{sc.Spec(topo, 2, 32, 0, u, 1, false), sc.Spec(topo, 2, 32, 1, u, 1, true)}, loads)
	if err != nil {
		t.Fatal(err)
	}
	det, ada := Throughput(curves[0]), Throughput(curves[1])
	if ada < det {
		t.Fatalf("adaptive throughput %.4f below deterministic %.4f", ada, det)
	}
}

func TestFigure3SmokeAndFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sc := tinyScale()
	sc.LoadPoints = 3
	res, err := Figure3(sc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != len(Figure3Fractions) {
		t.Fatalf("series = %d, want %d", len(res.Series), len(Figure3Fractions))
	}
	for _, s := range res.Series {
		if len(s.Points) != 3 {
			t.Fatalf("series %v has %d points", s.AdaptiveFraction, len(s.Points))
		}
	}
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 3", "adaptive traffic: 0%", "adaptive traffic: 100%", "factor="} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1SmokeAndFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sc := tinyScale()
	sc.Topologies = 1
	sc.LoadPoints = 3
	rows, err := Table1(sc, 4, 2, []PatternSpec{{Kind: "uniform"}}, []int{32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if r.Min > r.Avg || r.Avg > r.Max {
		t.Fatalf("min/avg/max disordered: %+v", r)
	}
	if r.Avg < 0.8 {
		t.Fatalf("throughput factor %.2f implausibly low", r.Avg)
	}
	var buf bytes.Buffer
	if err := WriteTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "uniform") {
		t.Fatalf("table output missing pattern column:\n%s", buf.String())
	}
}

// TestPreset: the scale names and the Table 1 patterns each runs.
func TestPreset(t *testing.T) {
	sc, pats, err := Preset("quick")
	if err != nil || !reflect.DeepEqual(sc, QuickScale()) || !reflect.DeepEqual(pats, []PatternSpec{{Kind: "uniform"}}) {
		t.Fatalf("Preset(quick) = %+v, %v, %v", sc, pats, err)
	}
	sc, pats, err = Preset("full")
	if err != nil || !reflect.DeepEqual(sc, FullScale()) || !reflect.DeepEqual(pats, Table1Patterns) {
		t.Fatalf("Preset(full) = %+v, %v, %v", sc, pats, err)
	}
	if _, _, err := Preset("bogus"); err == nil || err.Error() != `unknown scale "bogus"` {
		t.Fatalf("Preset(bogus) = %v, want the unknown-scale error", err)
	}
}

// TestParsePattern: a hot-spot fraction must lie in (0,1]; NaN, zero,
// negative, above-one and infinite fractions are refused at parse time
// with the rule JobSpec applies.
func TestParsePattern(t *testing.T) {
	for _, frac := range []string{"NaN", "0", "-0.1", "1.5", "+Inf"} {
		s := "hot-spot:" + frac
		if ps, err := ParsePattern(s); err == nil || !strings.Contains(err.Error(), "hot-spot fraction") {
			t.Fatalf("ParsePattern(%q) = %+v, %v; want the fraction refused", s, ps, err)
		}
	}
	ps, err := ParsePattern("hot-spot:1")
	if err != nil || ps != (PatternSpec{Kind: "hot-spot", Fraction: 1}) {
		t.Fatalf("ParsePattern(hot-spot:1) = %+v, %v", ps, err)
	}
	if _, err := (PatternSpec{Kind: "hot-spot", Fraction: math.NaN()}).Build(64, 1); err == nil {
		t.Fatal("Build accepted a NaN hot-spot fraction")
	}
}

func TestTable1PatternSpecs(t *testing.T) {
	for _, ps := range Table1Patterns {
		if _, err := ps.Build(64, 1); err != nil {
			t.Fatalf("%v: %v", ps, err)
		}
	}
	if _, err := (PatternSpec{Kind: "nonsense"}).Build(64, 1); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

func TestTable2RowsAndInvariants(t *testing.T) {
	sc := tinyScale()
	sc.Sizes = []int{16}
	sc.Topologies = 3
	rows, err := Table2(sc, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // MR = 2, 3, 4
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		sum := 0.0
		for k := 1; k <= r.MR; k++ {
			if r.Percent[k] < 0 || r.Percent[k] > 100 {
				t.Fatalf("percent out of range: %+v", r)
			}
			sum += r.Percent[k]
		}
		if sum < 99.9 || sum > 100.1 {
			t.Fatalf("percentages sum to %.2f: %+v", sum, r)
		}
	}
	// The k=1 share must agree across MR caps (capping can't change
	// how many pairs have exactly one option).
	if d := rows[0].Percent[1] - rows[2].Percent[1]; d > 0.01 || d < -0.01 {
		t.Fatalf("k=1 share differs across MR: %v vs %v", rows[0].Percent[1], rows[2].Percent[1])
	}
}

func TestTable2ConnectivityIncreasesOptions(t *testing.T) {
	sc := tinyScale()
	sc.Sizes = []int{16}
	sc.Topologies = 3
	r4, err := Table2(sc, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r6, err := Table2(sc, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	// §5.2.2: higher connectivity -> more multi-option pairs.
	if r6[0].Percent[2] <= r4[0].Percent[2] {
		t.Fatalf("6-link multi-option share %.2f not above 4-link %.2f",
			r6[0].Percent[2], r4[0].Percent[2])
	}
}

func TestMotivationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sc := tinyScale()
	sc.Topologies = 1
	sc.LoadPoints = 3
	rows, err := Motivation(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Deterministic <= 0 || r.SourcePath2 <= 0 || r.SourcePath4 <= 0 || r.FullyAdaptive <= 0 {
		t.Fatalf("zero throughputs: %+v", r)
	}
	// The paper's ordering at smoke scale: FA at least matches the
	// deterministic baseline.
	if r.FullyAdaptive < r.Deterministic*0.95 {
		t.Fatalf("FA %.4f below deterministic %.4f", r.FullyAdaptive, r.Deterministic)
	}
	var buf bytes.Buffer
	if err := WriteMotivation(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fully-adapt") {
		t.Fatalf("missing column header:\n%s", buf.String())
	}
}

func TestRunReportsReorderAndOrderStats(t *testing.T) {
	sc := tinyScale()
	topo := topology.MustGenerateIrregular(topology.IrregularSpec{
		NumSwitches: 8, HostsPerSwitch: 4, InterSwitch: 4, Seed: 9,
	})
	spec := sc.Spec(topo, 2, 32, 1, traffic.Uniform{NumHosts: topo.NumHosts()}, 2, true)
	spec.Traffic.LoadBytesPerNsPerHost = 0.05
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutOfOrderFraction < 0 || res.OutOfOrderFraction > 1 {
		t.Fatalf("OutOfOrderFraction = %v", res.OutOfOrderFraction)
	}
	if res.P99LatencyNs < res.AvgLatencyNs {
		t.Fatalf("p99 %v below avg %v", res.P99LatencyNs, res.AvgLatencyNs)
	}
	if res.ReorderPeakHeld < 0 {
		t.Fatalf("ReorderPeakHeld = %d", res.ReorderPeakHeld)
	}
}

func TestTable2Format(t *testing.T) {
	sc := tinyScale()
	sc.Sizes = []int{8}
	sc.Topologies = 1
	rows, err := Table2(sc, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable2(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatalf("missing header:\n%s", buf.String())
	}
}
