package ibasim

// One benchmark per evaluation artifact of the paper, plus ablation
// benches for the design axes DESIGN.md calls out. Each iteration
// regenerates the artifact at a reduced scale; reported metrics are
// ns/op of the whole regeneration (the artifact values themselves are
// printed by cmd/ibbench and recorded in EXPERIMENTS.md).

import (
	"io"
	"testing"

	"ibasim/internal/experiments"
	"ibasim/internal/sim"
	"ibasim/internal/topology"
	"ibasim/internal/traffic"
)

// benchScale keeps benchmark iterations to roughly a second.
func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Sizes = []int{8}
	sc.Topologies = 1
	sc.LoadPoints = 3
	sc.Warmup = 20_000
	sc.Measure = 60_000
	sc.DrainGrace = 20_000
	sc.LoadLo = 0.01
	sc.LoadHi = 0.25
	return sc
}

// BenchmarkFigure3 regenerates one Figure 3 panel (latency vs accepted
// traffic across adaptive-traffic fractions).
func BenchmarkFigure3(b *testing.B) {
	sc := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(sc, 8)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3ArbScan regenerates the panel with the scanning
// arbiter (Scale.Arb "scan"): the full round-robin rescan reference.
// The delta against BenchmarkFigure3 is the end-to-end win of the
// wake-list arbiter; the hot-spot benchmarks below add congested
// variants.
func BenchmarkFigure3ArbScan(b *testing.B) {
	sc := benchScale()
	sc.Arb = "scan"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(sc, 8)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Left regenerates Table 1's left side configuration
// (4 inter-switch links, 2 routing options, uniform traffic).
func BenchmarkTable1Left(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(sc, 4, 2, []experiments.PatternSpec{{Kind: "uniform"}}, []int{32})
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.WriteTable1(io.Discard, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Right regenerates Table 1's right side configuration
// (6 inter-switch links, up to 4 routing options).
func BenchmarkTable1Right(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(sc, 6, 4, []experiments.PatternSpec{{Kind: "uniform"}}, []int{32})
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.WriteTable1(io.Discard, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1HotSpot covers the hot-spot rows of Table 1.
func BenchmarkTable1HotSpot(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(sc, 4, 2,
			[]experiments.PatternSpec{{Kind: "hot-spot", Fraction: 0.10}}, []int{32})
		if err != nil {
			b.Fatal(err)
		}
		_ = rows
	}
}

// BenchmarkTable1BitReversal covers the bit-reversal rows of Table 1.
func BenchmarkTable1BitReversal(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(sc, 4, 2,
			[]experiments.PatternSpec{{Kind: "bit-reversal"}}, []int{32}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1LongPackets covers Table 1's 256-byte rows.
func BenchmarkTable1LongPackets(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(sc, 4, 2,
			[]experiments.PatternSpec{{Kind: "uniform"}}, []int{256}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates the routing-option census at both
// connectivities (pure analysis, no simulation).
func BenchmarkTable2(b *testing.B) {
	sc := benchScale()
	sc.Sizes = []int{8, 16}
	sc.Topologies = 3
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, links := range []int{4, 6} {
			rows, err := experiments.Table2(sc, links, 4)
			if err != nil {
				b.Fatal(err)
			}
			if err := experiments.WriteTable2(io.Discard, rows); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationSelection compares §4.3's four selection policies
// on one saturated run each.
func BenchmarkAblationSelection(b *testing.B) {
	for _, c := range []struct {
		name        string
		imm, static bool
	}{
		{"arbitration-aware", false, false},
		{"arbitration-static", false, true},
		{"immediate-aware", true, false},
		{"immediate-static", true, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Switches = 8
			cfg.WarmupNs = 20_000
			cfg.MeasureNs = 60_000
			cfg.DrainNs = 20_000
			cfg.Load = 0.15 // past saturation, where policies differ
			cfg.ImmediateSelection = c.imm
			cfg.StaticSelection = c.static
			for i := 0; i < b.N; i++ {
				res, err := Simulate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AcceptedPerSwitch, "accepted-B/ns/sw")
			}
		})
	}
}

// BenchmarkAblationSplit sweeps the escape queue reserve (§4.4 uses
// half the buffer).
func BenchmarkAblationSplit(b *testing.B) {
	for _, reserve := range []int{4, 8, 12} {
		b.Run(map[int]string{4: "quarter", 8: "half", 12: "three-quarter"}[reserve], func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Switches = 8
			cfg.WarmupNs = 20_000
			cfg.MeasureNs = 60_000
			cfg.DrainNs = 20_000
			cfg.Load = 0.15
			cfg.EscapeReserveCredits = reserve
			for i := 0; i < b.N; i++ {
				res, err := Simulate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AcceptedPerSwitch, "accepted-B/ns/sw")
			}
		})
	}
}

// BenchmarkMotivation regenerates the §1 motivation comparison
// (deterministic vs source-selected multipath vs fully adaptive).
func BenchmarkMotivation(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Motivation(sc)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.WriteMotivation(io.Discard, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReorderCost measures the destination reorder buffer's
// bookkeeping on a saturated adaptive run (§1 extension).
func BenchmarkReorderCost(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Switches = 8
	cfg.WarmupNs = 20_000
	cfg.MeasureNs = 60_000
	cfg.DrainNs = 20_000
	cfg.Load = 0.15
	for i := 0; i < b.N; i++ {
		res, err := Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OutOfOrderFraction, "ooo-fraction")
		b.ReportMetric(float64(res.ReorderPeakHeld), "reorder-peak")
	}
}

// BenchmarkArbHotSpot measures each arbiter on a saturated hot-spot
// run — the congested regime the wake lists target, where the scan
// re-probes a tree of blocked heads on every kick while the wake
// arbiter probes each only when its blocking condition changes.
// Results are bit-identical across sub-benchmarks (the arbiter
// differential suite enforces it); only wall-clock time may differ.
func BenchmarkArbHotSpot(b *testing.B) {
	topo := topology.MustGenerateIrregular(topology.IrregularSpec{
		NumSwitches: 16, HostsPerSwitch: 4, InterSwitch: 4, Seed: 1,
	})
	hot, err := traffic.NewHotSpot(topo.NumHosts(), 0.3, sim.NewRNG(7))
	if err != nil {
		b.Fatal(err)
	}
	for _, arb := range []string{"wake", "scan"} {
		b.Run(arb, func(b *testing.B) {
			sc := benchScale()
			sc.Arb = arb
			spec := sc.Spec(topo, 2, 32, 1, hot, 1, true)
			spec.Traffic.LoadBytesPerNsPerHost = 0.15 // past saturation
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulationEngine measures raw simulation speed: events per
// second on a saturated 16-switch subnet (the simulator's own
// performance, not a paper artifact).
func BenchmarkSimulationEngine(b *testing.B) {
	topo := topology.MustGenerateIrregular(topology.IrregularSpec{
		NumSwitches: 16, HostsPerSwitch: 4, InterSwitch: 4, Seed: 1,
	})
	sc := benchScale()
	spec := sc.Spec(topo, 2, 32, 1, traffic.Uniform{NumHosts: topo.NumHosts()}, 1, true)
	spec.Traffic.LoadBytesPerNsPerHost = 0.05
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}
