// Command ibbench regenerates the paper's evaluation artifacts.
//
//	ibbench -exp fig3   -switches 16          # Figure 3 panel
//	ibbench -exp table1 -links 4 -mr 2        # Table 1 rows
//	ibbench -exp table1 -links 6 -mr 4 -scale full
//	ibbench -exp table2 -links 4 -mr 4        # Table 2 census
//	ibbench -exp all                          # everything at quick scale
//	ibbench -exp faults -faults 'rand:4:15000@50000-150000; autoreconfig:10000'
//
// The -scale presets (quick, full) can be overridden field by field
// with -sizes, -topos, -loads, -measure, -warmup, -load-lo, -load-hi,
// -sizes-bytes and -patterns. Output is tab-separated text with #
// comment headers, directly gnuplot-able; EXPERIMENTS.md records
// reference outputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ibasim/internal/campaign"
	"ibasim/internal/experiments"
	"ibasim/internal/fabric"
	"ibasim/internal/faults"
	"ibasim/internal/prof"
	"ibasim/internal/sim"
)

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parsePatterns(s string) ([]experiments.PatternSpec, error) {
	var out []experiments.PatternSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ps, err := experiments.ParsePattern(part)
		if err != nil {
			return nil, err
		}
		out = append(out, ps)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// patString renders a pattern back into the ParsePattern grammar
// (PatternSpec.String is a display form and does not round-trip).
func patString(ps experiments.PatternSpec) string {
	if ps.Kind == "hot-spot" {
		return fmt.Sprintf("hot-spot:%g", ps.Fraction)
	}
	return ps.Kind
}

func main() {
	exp := flag.String("exp", "all", "experiment: fig3, table1, table2, motivation, faults, campaign, all")
	topoFam := flag.String("topo", "irregular", "topology family for -exp fig3: irregular, fattree:K,N or torus:AxB[xC] (structured families use their native escape routing)")
	scaleName := flag.String("scale", "quick", "preset: quick or full")
	switches := flag.Int("switches", 16, "fig3: network size")
	links := flag.Int("links", 4, "inter-switch links per switch")
	mr := flag.Int("mr", 2, "routing options per destination")
	sizes := flag.String("sizes", "", "override: network sizes, e.g. 8,16,32,64")
	topos := flag.Int("topos", 0, "override: topologies per configuration")
	loadPoints := flag.Int("loads", 0, "override: load points per sweep")
	warmup := flag.Int64("warmup", 0, "override: warm-up ns")
	measure := flag.Int64("measure", 0, "override: measurement window ns")
	loadLo := flag.Float64("load-lo", 0, "override: lowest per-host load (bytes/ns)")
	loadHi := flag.Float64("load-hi", 0, "override: highest per-host load (bytes/ns)")
	pktSizes := flag.String("bytes", "", "override: packet sizes, e.g. 32,256")
	patterns := flag.String("patterns", "", "table1 patterns: uniform,bit-reversal,hot-spot:0.1,...")
	check := flag.Bool("check", false, "enable heavy invariant audits on every run (results are bit-identical)")
	faultSpec := flag.String("faults", "rand:4:15000@50000-150000; autoreconfig:10000", "faults: campaign spec string or @file.json")
	faultSeed := flag.Uint64("fault-seed", 1, "faults: seed for the campaign's randomized elements")
	emitCampaign := flag.String("emit-campaign", "", "write an ibcamp campaign spec built from the current flags to FILE and exit")
	campaignFile := flag.String("campaign", "", "-exp campaign: spec file to run in-process (sequential differential oracle for ibcamp)")
	fractions := flag.String("fractions", "1", "campaign emit: adaptive fractions, e.g. 0,0.5,1")
	pcfg := prof.Flags()
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ibbench:", err)
		os.Exit(1)
	}

	fam, err := experiments.ParseFamily(*topoFam)
	if err != nil {
		fail(err)
	}
	if !fam.Irregular() && *exp != "fig3" {
		fail(fmt.Errorf("-topo %s only supports -exp fig3 (the family sweep); table1/table2/faults run on the irregular corpus", fam))
	}

	stopProf, err := pcfg.Start()
	if err != nil {
		fail(err)
	}
	defer stopProf()

	var sc experiments.Scale
	switch *scaleName {
	case "quick":
		sc = experiments.QuickScale()
	case "full":
		sc = experiments.FullScale()
	default:
		fail(fmt.Errorf("unknown scale %q", *scaleName))
	}
	if *sizes != "" {
		v, err := parseInts(*sizes)
		if err != nil {
			fail(err)
		}
		sc.Sizes = v
	}
	if *topos > 0 {
		sc.Topologies = *topos
	}
	if *loadPoints > 0 {
		sc.LoadPoints = *loadPoints
	}
	if *warmup > 0 {
		sc.Warmup = sim.Time(*warmup)
	}
	if *measure > 0 {
		sc.Measure = sim.Time(*measure)
		sc.DrainGrace = sim.Time(*measure / 5)
	}
	if *loadLo > 0 {
		sc.LoadLo = *loadLo
	}
	if *loadHi > 0 {
		sc.LoadHi = *loadHi
	}
	if *pktSizes != "" {
		v, err := parseInts(*pktSizes)
		if err != nil {
			fail(err)
		}
		sc.PacketSizes = v
	}
	sc.Check = *check
	pats := []experiments.PatternSpec{{Kind: "uniform"}}
	if *scaleName == "full" {
		pats = experiments.Table1Patterns
	}
	if *patterns != "" {
		v, err := parsePatterns(*patterns)
		if err != nil {
			fail(err)
		}
		pats = v
	}

	if *emitCampaign != "" {
		pstrs := make([]string, len(pats))
		for i, p := range pats {
			pstrs[i] = patString(p)
		}
		fracs, err := parseFloats(*fractions)
		if err != nil {
			fail(err)
		}
		spec := campaign.Spec{
			Schema:            campaign.SpecSchemaVersion,
			Name:              "ibbench-" + *scaleName,
			Sizes:             sc.Sizes,
			HostsPerSwitch:    sc.HostsPerSw,
			Links:             *links,
			MR:                *mr,
			PacketSizes:       sc.PacketSizes,
			Patterns:          pstrs,
			AdaptiveFractions: fracs,
			Seeds:             sc.Topologies,
			FirstSeed:         sc.FirstSeed,
			LoadLo:            sc.LoadLo,
			LoadHi:            sc.LoadHi,
			LoadPoints:        sc.LoadPoints,
			WarmupNs:          int64(sc.Warmup),
			MeasureNs:         int64(sc.Measure),
			DrainGraceNs:      int64(sc.DrainGrace),
			// The defaults are written out so the emitted exec block
			// stays byte-identical to the specs already stored.
			Exec: experiments.ExecSpec{
				Engine: "seq", Sched: sim.SchedulerCalendar.String(), Check: *check, Arb: fabric.ArbWake,
			},
		}
		if *exp == "faults" {
			if strings.HasPrefix(*faultSpec, "@") {
				fail(fmt.Errorf("campaign jobs need a self-contained fault spec, not the file reference %q", *faultSpec))
			}
			spec.Faults = *faultSpec
			spec.FaultSeed = *faultSeed
		}
		data, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			fail(err)
		}
		data = append(data, '\n')
		// Round-trip through the strict parser so an emitted spec is
		// guaranteed to load.
		if _, err := campaign.ParseSpec(data); err != nil {
			fail(err)
		}
		if err := os.WriteFile(*emitCampaign, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "ibbench: wrote campaign spec %q to %s\n", spec.Name, *emitCampaign)
		return
	}

	// runCampaign is the in-process differential oracle for ibcamp: the
	// same spec expansion and aggregation, executed sequentially with no
	// store or subprocesses. Its stdout must match `ibcamp run` byte for
	// byte.
	runCampaign := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			fail(err)
		}
		spec, err := campaign.ParseSpec(data)
		if err != nil {
			fail(err)
		}
		plan, err := spec.Expand()
		if err != nil {
			fail(err)
		}
		results := make(map[string][]byte, len(plan.Jobs))
		for _, job := range plan.Jobs {
			res, err := job.Spec.Execute()
			if err != nil {
				fail(err)
			}
			body, err := campaign.EncodeArtifact(job.Hash, res)
			if err != nil {
				fail(err)
			}
			results[job.Hash] = body
		}
		table, err := campaign.Aggregate(plan, func(h string) ([]byte, error) {
			b, ok := results[h]
			if !ok {
				return nil, campaign.ErrNotFound
			}
			return b, nil
		}, false)
		if err != nil {
			fail(err)
		}
		if err := table.Write(os.Stdout); err != nil {
			fail(err)
		}
	}

	runFig3 := func(size int) {
		var res *experiments.Figure3Result
		var err error
		if fam.Irregular() {
			res, err = experiments.Figure3(sc, size)
		} else {
			res, err = experiments.Figure3Family(sc, fam)
		}
		if err != nil {
			fail(err)
		}
		if err := res.Write(os.Stdout); err != nil {
			fail(err)
		}
	}
	runTable1 := func(links, mr int) {
		rows, err := experiments.Table1(sc, links, mr, pats, sc.PacketSizes)
		if err != nil {
			fail(err)
		}
		if err := experiments.WriteTable1(os.Stdout, rows); err != nil {
			fail(err)
		}
	}
	runTable2 := func(links, maxMR int) {
		rows, err := experiments.Table2(sc, links, maxMR)
		if err != nil {
			fail(err)
		}
		if err := experiments.WriteTable2(os.Stdout, rows); err != nil {
			fail(err)
		}
	}

	runFaults := func(links, mr int) {
		camp, err := faults.Load(*faultSpec)
		if err != nil {
			fail(err)
		}
		rows, err := experiments.FaultCampaign(sc, links, mr, camp, *faultSeed)
		if err != nil {
			fail(err)
		}
		if err := experiments.WriteFaultTable(os.Stdout, rows); err != nil {
			fail(err)
		}
	}

	runMotivation := func() {
		rows, err := experiments.Motivation(sc)
		if err != nil {
			fail(err)
		}
		if err := experiments.WriteMotivation(os.Stdout, rows); err != nil {
			fail(err)
		}
	}

	switch *exp {
	case "fig3":
		runFig3(*switches)
	case "motivation":
		runMotivation()
	case "table1":
		runTable1(*links, *mr)
	case "table2":
		runTable2(*links, *mr)
	case "faults":
		runFaults(*links, *mr)
	case "campaign":
		if *campaignFile == "" {
			fail(fmt.Errorf("-exp campaign needs -campaign FILE"))
		}
		runCampaign(*campaignFile)
	case "all":
		fmt.Println("== Figure 3 ==")
		runFig3(*switches)
		fmt.Println("\n== Table 1 (4 links, MR 2) ==")
		runTable1(4, 2)
		fmt.Println("\n== Table 2 (4 links) ==")
		runTable2(4, 4)
		fmt.Println("\n== Table 2 (6 links) ==")
		runTable2(6, 4)
	default:
		fail(fmt.Errorf("unknown experiment %q", *exp))
	}
}
