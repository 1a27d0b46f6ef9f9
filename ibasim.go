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

// simTime converts a nanosecond count into the engine's time type.
func simTime(ns int64) sim.Time { return sim.Time(ns) }

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
	HotSpotFraction  float64 // used when Pattern == "hot-spot"
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
	// autoreconfig:10000") or "@path" naming a JSON campaign file —
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

// Result reports the paper's observables for one run.
type Result struct {
	// OfferedPerSwitch and AcceptedPerSwitch are in bytes/ns/switch.
	OfferedPerSwitch  float64
	AcceptedPerSwitch float64
	// AvgLatencyNs is the mean generation-to-delivery latency;
	// P99LatencyNs bounds the 99th percentile.
	AvgLatencyNs float64
	P99LatencyNs float64
	// PacketsMeasured counts packets in the measurement window.
	PacketsMeasured uint64
	// OutOfOrderFraction is the share of deliveries overtaken by a
	// later packet of their (src, dst) flow — adaptivity's in-order
	// cost (§1).
	OutOfOrderFraction float64
	// ReorderPeakHeld and ReorderAvgDelayNs describe the
	// destination-side reorder buffer that would restore full
	// ordering: peak packets parked and mean added delay.
	ReorderPeakHeld   int
	ReorderAvgDelayNs float64

	// Degraded reports fault-campaign observables (drops by reason,
	// retries, losses, staged-recovery latency, watchdog verdict).
	// Zero unless Config.Faults ran a campaign.
	Degraded Degraded

	// Audit reports the invariant auditor's pass over the run.
	Audit Audit
}

// Audit summarizes the invariant auditor: how many per-hop admission
// checks and heavy whole-fabric scans ran, and what they found.
type Audit struct {
	HopChecks  uint64
	HeavyTicks uint64 // 0 unless Config.Check
	Violations int
	// First is the first violation's message ("" when clean).
	First string
}

// Degraded reports how a run behaved under a fault campaign.
type Degraded struct {
	// FaultsInjected, Repairs and Reconfigs count executed failure
	// events, repair events, and completed staged reconfigurations.
	FaultsInjected int
	Repairs        int
	Reconfigs      int

	// Packet drops by reason, plus source-side retries and packets
	// lost for good (retry budget exhausted).
	DroppedUnroutable uint64
	DroppedOnDeadPort uint64
	DroppedTimeout    uint64
	Retries           uint64
	Lost              uint64

	// RerouteDrops counts buffered packets staged recovery discarded.
	RerouteDrops int

	// RecoveryLatencyNs: first fault to first post-reconfiguration
	// delivery; -1 if never observed.
	RecoveryLatencyNs int64

	// Watchdog verdict: audit ticks run, invariant breaches seen, and
	// the first breach's message ("" when clean).
	WatchdogSamples    uint64
	WatchdogViolations int
	FirstViolation     string
}

// Dropped sums the per-reason drop counters.
func (d Degraded) Dropped() uint64 {
	return d.DroppedUnroutable + d.DroppedOnDeadPort + d.DroppedTimeout
}

func degradedFrom(d experiments.DegradedStats) Degraded {
	return Degraded{
		FaultsInjected:     d.FaultsInjected,
		Repairs:            d.Repairs,
		Reconfigs:          d.Reconfigs,
		DroppedUnroutable:  d.DroppedUnroutable,
		DroppedOnDeadPort:  d.DroppedOnDeadPort,
		DroppedTimeout:     d.DroppedTimeout,
		Retries:            d.Retries,
		Lost:               d.Lost,
		RerouteDrops:       d.RerouteDrops,
		RecoveryLatencyNs:  d.RecoveryLatencyNs,
		WatchdogSamples:    d.WatchdogSamples,
		WatchdogViolations: d.WatchdogViolations,
		FirstViolation:     d.FirstViolation,
	}
}

// Point is one load point of a sweep.
type Point struct {
	Offered    float64
	Accepted   float64
	AvgLatency float64
}

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
	sc := experiments.QuickScale()
	sc.Warmup = simTime(c.WarmupNs)
	sc.Measure = simTime(c.MeasureNs)
	sc.DrainGrace = simTime(c.DrainNs)
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
		split, err := core.NewCreditSplit(spec.Fabric.BufferCredits, c.EscapeReserveCredits)
		if err != nil {
			return experiments.RunSpec{}, err
		}
		spec.Fabric.Split = split
	}
	spec.Check = c.Check
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
	return experiments.BuildPattern(ps, numHosts, c.Seed)
}

// resultFrom converts an internal run result to the public shape.
func resultFrom(res experiments.RunResult) Result {
	return Result{
		OfferedPerSwitch:   res.OfferedPerSwitch,
		AcceptedPerSwitch:  res.AcceptedPerSwitch,
		AvgLatencyNs:       res.AvgLatencyNs,
		P99LatencyNs:       res.P99LatencyNs,
		PacketsMeasured:    res.PacketsMeasured,
		OutOfOrderFraction: res.OutOfOrderFraction,
		ReorderPeakHeld:    res.ReorderPeakHeld,
		ReorderAvgDelayNs:  res.ReorderAvgDelayNs,
		Degraded:           degradedFrom(res.Degraded),
		Audit: Audit{
			HopChecks:  res.Audit.HopChecks,
			HeavyTicks: res.Audit.HeavyTicks,
			Violations: res.Audit.Violations,
			First:      res.Audit.First,
		},
	}
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
	res, err := experiments.Run(spec)
	if err != nil {
		return resultFrom(res), err
	}
	return resultFrom(res), nil
}

// TraceResult augments a Result with tracer aggregates.
type TraceResult struct {
	Result
	// AdaptiveShare is the fraction of switch forwarding decisions
	// that used an adaptive routing option (vs the escape option).
	AdaptiveShare float64
	// EventsRecorded counts lifecycle events seen (created, per-hop,
	// delivered), including those evicted from the bounded ring.
	EventsRecorded uint64
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
	return TraceResult{
		Result:         resultFrom(res),
		AdaptiveShare:  rec.AdaptiveShare(),
		EventsRecorded: rec.Total(),
	}, nil
}

// Sweep runs the configuration at each per-host load (bytes/ns) and
// returns the latency/accepted-traffic curve.
func Sweep(c Config, loads []float64) ([]Point, error) {
	curves, err := sweeps(loads, c)
	if err != nil {
		return nil, err
	}
	out := make([]Point, len(loads))
	for i, p := range curves[0] {
		out[i] = Point(p)
	}
	return out, nil
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
func Throughput(points []Point) float64 {
	best := 0.0
	for _, p := range points {
		if p.Accepted > best {
			best = p.Accepted
		}
	}
	return best
}

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
