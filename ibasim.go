// Package ibasim is a discrete-event simulator of InfiniBand (IBA)
// subnets that reproduces "Supporting Fully Adaptive Routing in
// InfiniBand Networks" (Martínez, Flich, Robles, López, Duato — IPDPS
// 2003): a spec-compatible switch extension that adds fully adaptive
// routing to IBA via LMC virtual addressing, interleaved forwarding
// tables, and adaptive/escape logical queues inside each VL buffer.
//
// The package offers a high-level API over the internal packages:
// build a workload with Config, run it with Simulate, sweep offered
// load with Sweep, and compare enhanced against stock switches with
// CompareRouting. The experiment harnesses that regenerate the paper's
// Figure 3, Table 1 and Table 2 are exposed through RunFigure3,
// RunTable1 and RunTable2 (also available as the ibbench command).
package ibasim

import (
	"fmt"
	"io"

	"ibasim/internal/core"
	"ibasim/internal/experiments"
	"ibasim/internal/faults"
	"ibasim/internal/sim"
	"ibasim/internal/topology"
	"ibasim/internal/trace"
	"ibasim/internal/traffic"
)

// Config describes one simulation: topology shape, routing setup and
// workload. Zero values are invalid; start from DefaultConfig.
type Config struct {
	// Topology selects the topology family in the -topo grammar:
	// "" or "irregular" (the paper's random irregular networks, shaped
	// by the fields below), "fattree:K,N" (k-ary n-tree with D-mod-K
	// escape routing; hosts attach to the leaf row only), or
	// "torus:AxB[xC]" (2D/3D torus with dimension-order escape routing;
	// HostsPerSwitch applies). Structured families ignore Switches,
	// LinksPerSwitch and TopologySeed — their shape is the spec.
	Topology string

	// Irregular shape: a connected random irregular network with
	// LinksPerSwitch inter-switch links per switch (the paper uses 4
	// or 6) and HostsPerSwitch end nodes per switch (the paper uses
	// 4). TopologySeed makes the topology reproducible.
	Switches       int
	HostsPerSwitch int
	LinksPerSwitch int
	TopologySeed   uint64

	// RoutingOptions is the paper's MR: total routing options stored
	// per destination at each switch (1 escape + MR-1 adaptive).
	RoutingOptions int

	// AdaptiveSwitches selects enhanced switches (true) or a stock
	// deterministic IBA subnet (false).
	AdaptiveSwitches bool

	// SourceMultipath (>1) switches the run to the baseline the
	// paper's introduction discusses: plain switches, with this many
	// alternative deterministic paths per destination, one picked at
	// random by the source for each packet. Requires AdaptiveSwitches
	// to be false.
	SourceMultipath int

	// Workload.
	Pattern          string  // "uniform", "bit-reversal", "hot-spot"
	HotSpotFraction  float64 // used when Pattern == "hot-spot"; in (0,1]
	PacketSize       int     // bytes (paper: 32 or 256)
	AdaptiveFraction float64 // share of packets requesting adaptive service
	Load             float64 // offered load, bytes/ns/host

	// Measurement window (ns): [Warmup, Warmup+Measure), plus a drain
	// grace for in-flight packets.
	WarmupNs  int64
	MeasureNs int64
	DrainNs   int64

	Seed uint64

	// Check enables the invariant auditor's heavy periodic scans
	// (whole-fabric credit audit, live-table escape-CDG acyclicity) on
	// top of the always-on cheap checks. Results are bit-identical
	// with or without it; Result.Audit reports the verdict.
	Check bool

	// Ablation knobs (§4.3 and §4.4 design axes). Zero values give
	// the paper's evaluation setup.

	// ImmediateSelection fixes the output port right after the
	// forwarding-table access instead of re-selecting at arbitration
	// time.
	ImmediateSelection bool
	// StaticSelection picks among routing options pseudo-randomly
	// instead of preferring the option with the most free credits.
	StaticSelection bool
	// EscapeReserveCredits overrides the escape queue's share of each
	// VL buffer (default: half of the buffer, the paper's split).
	EscapeReserveCredits int

	// Faults, when non-empty, runs a fault-injection campaign during
	// the simulation: either a spec string ("flap@60000:0-1:20000;
	// autoreconfig:10000") or "@path" naming a file that holds one —
	// see faults.Parse for the grammar. A campaign enables host-side
	// send timeouts and bounded retry, staged SM reconfiguration, and
	// the invariant watchdog; Result.Degraded reports the outcome.
	// FaultSeed drives the campaign's randomized elements.
	Faults    string
	FaultSeed uint64
}

// DefaultConfig returns a 16-switch quick-run configuration with the
// paper's switch parameters.
func DefaultConfig() Config {
	return Config{
		Switches:         16,
		HostsPerSwitch:   4,
		LinksPerSwitch:   4,
		TopologySeed:     1,
		RoutingOptions:   2,
		AdaptiveSwitches: true,
		Pattern:          "uniform",
		PacketSize:       32,
		AdaptiveFraction: 1.0,
		Load:             0.02,
		WarmupNs:         50_000,
		MeasureNs:        250_000,
		DrainNs:          50_000,
		Seed:             1,
	}
}

// Result reports the paper's observables for one run:
// OfferedPerSwitch and AcceptedPerSwitch (bytes/ns/switch), the mean
// and 99th-percentile latency, the out-of-order share and the
// destination reorder buffer's cost, the host retry machinery's work
// (Retry), the fault campaign's outcome (Degraded) and the invariant
// auditor's verdict (Audit). It is the experiments layer's RunResult,
// so the facade reports every field the harnesses compute.
// ShardStats is always nil; it stays only so stored campaign
// artifacts decode, and goes with the next change to the stored
// result schema.
type Result = experiments.RunResult

// Audit summarizes the invariant auditor: how many per-hop admission
// checks and heavy whole-fabric scans ran, and what they found.
type Audit = experiments.AuditStats

// Degraded reports how a run behaved under a fault campaign (drops by
// reason, retries, losses, staged-recovery latency, watchdog verdict).
// It is zero unless Config.Faults ran a campaign.
type Degraded = experiments.DegradedStats

// Point is one load point of a sweep: offered and accepted traffic
// (bytes/ns/switch) and mean latency (ns).
type Point = experiments.SweepPoint

// spec translates the public Config into an internal RunSpec. It
// rejects an unsupported combination before building anything, so the
// error names the flag rather than whichever layer would notice first.
func (c Config) spec() (experiments.RunSpec, error) {
	fam, err := experiments.ParseFamily(c.Topology)
	if err != nil {
		return experiments.RunSpec{}, err
	}
	// Source multipath programs k up*/down* tie-break variants of one
	// link orientation; the structured families' escape routings have
	// no such variant notion, so the baseline is irregular-only.
	if c.SourceMultipath > 1 && !fam.Irregular() {
		return experiments.RunSpec{}, fmt.Errorf("ibasim: source multipath requires the irregular family, not -topo %s", c.Topology)
	}
	if fam.Irregular() && (c.Switches < 2 || c.HostsPerSwitch < 1 || c.LinksPerSwitch < 1) {
		return experiments.RunSpec{}, fmt.Errorf("ibasim: invalid topology shape %d/%d/%d",
			c.Switches, c.HostsPerSwitch, c.LinksPerSwitch)
	}
	topo, err := fam.Topology(topology.IrregularSpec{
		NumSwitches:    c.Switches,
		HostsPerSwitch: c.HostsPerSwitch,
		InterSwitch:    c.LinksPerSwitch,
		Seed:           c.TopologySeed,
	})
	if err != nil {
		return experiments.RunSpec{}, err
	}
	pattern, err := patternFor(c, topo.NumHosts())
	if err != nil {
		return experiments.RunSpec{}, err
	}
	sc := experiments.Scale{
		Warmup:     sim.Time(c.WarmupNs),
		Measure:    sim.Time(c.MeasureNs),
		DrainGrace: sim.Time(c.DrainNs),
		Check:      c.Check,
	}
	mr := c.RoutingOptions
	if c.SourceMultipath > mr {
		mr = c.SourceMultipath // the LID block must hold every path
	}
	spec := sc.Spec(topo, mr, c.PacketSize, c.AdaptiveFraction, pattern, c.Seed, c.AdaptiveSwitches)
	spec.Routing = fam.Routing()
	spec.MR = c.RoutingOptions
	spec.SourceMultipath = c.SourceMultipath
	spec.Fabric.SourceMultipath = c.SourceMultipath
	spec.Traffic.LoadBytesPerNsPerHost = c.Load
	spec.Fabric.Selection.AtArbitration = !c.ImmediateSelection
	spec.Fabric.Selection.StatusAware = !c.StaticSelection
	if c.EscapeReserveCredits > 0 {
		split, err := core.NewCreditSplit(spec.Fabric.Split.CMax, c.EscapeReserveCredits)
		if err != nil {
			return experiments.RunSpec{}, err
		}
		spec.Fabric.Split = split
	}
	if c.Faults != "" {
		camp, err := faults.Load(c.Faults)
		if err != nil {
			return experiments.RunSpec{}, err
		}
		spec.Faults = camp
		spec.FaultSeed = c.FaultSeed
	}
	return spec, nil
}

func patternFor(c Config, numHosts int) (traffic.Pattern, error) {
	ps := experiments.PatternSpec{Kind: c.Pattern, Fraction: c.HotSpotFraction}
	return ps.Build(numHosts, c.Seed)
}

// Simulate runs one simulation and returns its observables. Under a
// fault campaign (Config.Faults) a non-nil error with a partial
// Result means the campaign itself failed — e.g. a reconfiguration
// found the surviving topology disconnected.
func Simulate(c Config) (Result, error) {
	spec, err := c.spec()
	if err != nil {
		return Result{}, err
	}
	return experiments.Run(spec)
}

// TraceResult augments a Result with tracer aggregates.
type TraceResult struct {
	Result
	// AdaptiveShare is the fraction of switch forwarding decisions
	// that used an adaptive routing option (vs the escape option).
	AdaptiveShare float64
}

// SimulateTraced runs one simulation with a packet tracer attached,
// writing the last `capacity` lifecycle events to w (pass nil to only
// collect aggregates).
func SimulateTraced(c Config, capacity int, w io.Writer) (TraceResult, error) {
	spec, err := c.spec()
	if err != nil {
		return TraceResult{}, err
	}
	rec := trace.NewRecorder(capacity)
	res, err := experiments.RunObserved(spec, rec.Attach)
	if err != nil {
		return TraceResult{}, err
	}
	if w != nil {
		if err := rec.Dump(w); err != nil {
			return TraceResult{}, err
		}
	}
	return TraceResult{Result: res, AdaptiveShare: rec.AdaptiveShare()}, nil
}

// Sweep runs the configuration at each per-host load (bytes/ns) and
// returns the latency/accepted-traffic curve.
func Sweep(c Config, loads []float64) ([]Point, error) {
	curves, err := sweeps(loads, c)
	if err != nil {
		return nil, err
	}
	return curves[0], nil
}

// sweeps runs every configuration's load sweep on one worker pool.
func sweeps(loads []float64, cs ...Config) ([][]experiments.SweepPoint, error) {
	specs := make([]experiments.RunSpec, len(cs))
	for i, c := range cs {
		spec, err := c.spec()
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	return experiments.LoadSweeps(specs, loads)
}

// Throughput reads the saturation throughput (max accepted traffic)
// off a sweep.
func Throughput(points []Point) float64 { return experiments.Throughput(points) }

// Loads builds a geometric per-host load grid, a convenient argument
// for Sweep.
func Loads(lo, hi float64, n int) []float64 { return experiments.DefaultLoads(lo, hi, n) }

// Comparison is the outcome of CompareRouting.
type Comparison struct {
	Deterministic float64 // saturation throughput, bytes/ns/switch
	Adaptive      float64
	Factor        float64 // Adaptive / Deterministic
}

// CompareRouting runs the paper's headline comparison on one
// configuration: saturation throughput of a stock deterministic subnet
// versus enhanced switches carrying 100% adaptive traffic, over the
// given load grid.
func CompareRouting(c Config, loads []float64) (Comparison, error) {
	det := c
	det.AdaptiveSwitches = false
	det.AdaptiveFraction = 0
	ada := c
	ada.AdaptiveSwitches = true
	ada.AdaptiveFraction = 1

	curves, err := sweeps(loads, det, ada)
	if err != nil {
		return Comparison{}, err
	}
	cmp := Comparison{
		Deterministic: experiments.Throughput(curves[0]),
		Adaptive:      experiments.Throughput(curves[1]),
	}
	if cmp.Deterministic > 0 {
		cmp.Factor = cmp.Adaptive / cmp.Deterministic
	}
	return cmp, nil
}
