// Package experiments regenerates the paper's evaluation artifacts:
// the latency/accepted-traffic curves of Figure 3, the
// throughput-increase factors of Table 1, and the routing-option
// census of Table 2. Each harness prints the same rows/series the
// paper reports; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"math"

	"ibasim/internal/check"
	"ibasim/internal/fabric"
	"ibasim/internal/faults"
	"ibasim/internal/ib"
	"ibasim/internal/metrics"
	"ibasim/internal/reorder"
	"ibasim/internal/routing"
	"ibasim/internal/sim"
	"ibasim/internal/subnet"
	"ibasim/internal/topology"
	"ibasim/internal/traffic"
)

// RunSpec describes one simulation run.
type RunSpec struct {
	Topo *topology.Topology

	// LMC and MR configure the addressing plan and table contents.
	LMC uint
	MR  int

	// SourceMultipath switches the run to the source-selected
	// multipath baseline with this many alternative deterministic
	// paths (plain switches; Fabric.SourceMultipath must match).
	SourceMultipath int

	// Routing selects the routing-engine family the subnet manager
	// builds tables from (fat-tree D-mod-K, torus dimension-order).
	// nil keeps the up*/down* default — the paper's configuration.
	Routing routing.Builder

	Fabric  fabric.Config
	Traffic traffic.Config

	// Warmup and Measure bound the measurement window
	// [Warmup, Warmup+Measure); generation stops at the window's end
	// and the run drains for DrainGrace to complete in-flight
	// measured packets.
	Warmup     sim.Time
	Measure    sim.Time
	DrainGrace sim.Time

	Seed uint64

	// Faults, when non-nil, injects the campaign's failures on the sim
	// clock and starts the invariant watchdog; FaultSeed drives the
	// campaign's randomized elements (flap placement). A campaign also
	// enables the host retry/timeout policy (fabric.DefaultRetry) if
	// the Fabric config left it zero.
	Faults    *faults.Campaign
	FaultSeed uint64

	// Check enables the invariant auditor's heavy periodic scans
	// (whole-fabric credit audit, live-table escape-CDG acyclicity) in
	// addition to the always-on cheap checks. The scans only read
	// state, so results — including the Figure 3 golden hash — are
	// bit-identical with or without it.
	Check bool
}

// RunResult is the paper's pair of observables plus bookkeeping.
type RunResult struct {
	OfferedPerSwitch  float64
	AcceptedPerSwitch float64
	AvgLatencyNs      float64
	P99LatencyNs      float64
	PacketsMeasured   uint64

	// OutOfOrderFraction is the share of deliveries overtaken by a
	// later packet of their flow — the in-order cost of adaptivity.
	OutOfOrderFraction float64
	// ReorderPeakHeld and ReorderAvgDelayNs report what a
	// destination-side reorder buffer (§1's sketch) would need to
	// restore order: its peak occupancy and mean added delay.
	ReorderPeakHeld   int
	ReorderAvgDelayNs float64

	// Retry reports the host retry machinery's work on this run,
	// populated whenever a retry policy was configured — fault campaign
	// or not — so orchestration layers can surface flaky-run
	// diagnostics (a run that needed many re-injections, or whose worst
	// packet brushed the retry budget) without parsing DegradedStats.
	// All zero when Fabric.Retry is disabled.
	Retry RetryStats

	// Degraded-mode observables; all zero unless RunSpec.Faults ran a
	// campaign.
	Degraded DegradedStats

	// Audit summarizes the invariant auditor's pass over the run.
	Audit AuditStats

	// ShardStats is always nil. Every stored campaign artifact carries
	// the key as "ShardStats":null, and the strict artifact decoder
	// rejects unknown fields, so the field stays for those artifacts
	// to decode and re-encode byte-identically.
	ShardStats []struct{}
}

// AuditStats condenses the auditor's report for result plumbing.
type AuditStats struct {
	HopChecks  uint64
	HeavyTicks uint64 // 0 unless RunSpec.Check
	Violations int
	// First is the first violation's message ("" when clean).
	First string
}

// RetryStats condenses the fabric's retry counters for result
// plumbing. BackoffCapNs is the effective ceiling the exponential
// backoff saturated at (RetryConfig.BackoffMax, or
// fabric.DefaultBackoffCap when unset).
type RetryStats struct {
	Retries        uint64
	Lost           uint64
	DroppedTimeout uint64
	// MaxAttempts is the worst single packet's re-injection count;
	// compare against the policy's MaxRetries budget.
	MaxAttempts  int
	BackoffCapNs int64
}

// DegradedStats reports how a run behaved under a fault campaign.
type DegradedStats struct {
	// Fault-event bookkeeping: failures executed, repairs executed,
	// staged reconfigurations completed.
	FaultsInjected int
	Repairs        int
	Reconfigs      int

	// Drop/retry accounting from the fabric.
	DroppedUnroutable uint64
	DroppedOnDeadPort uint64
	DroppedTimeout    uint64
	Retries           uint64
	Lost              uint64

	// RerouteDrops counts buffered packets staged recovery discarded
	// while reprogramming tables.
	RerouteDrops int

	// RecoveryLatencyNs is the time from the first injected fault to
	// the first delivery after the (last) staged reconfiguration
	// completed; -1 if never observed.
	RecoveryLatencyNs int64

	// Watchdog outcome: audit ticks run and invariant breaches seen.
	WatchdogSamples    uint64
	WatchdogViolations int
	// FirstViolation is the first breach's message ("" when clean).
	FirstViolation string
}

// Dropped sums the per-reason drop counters.
func (d DegradedStats) Dropped() uint64 {
	return d.DroppedUnroutable + d.DroppedOnDeadPort + d.DroppedTimeout
}

// Run executes one simulation.
func Run(spec RunSpec) (RunResult, error) { return RunObserved(spec, nil) }

// RunObserved executes one simulation, calling observe (if non-nil)
// with the wired network after the metrics collector attaches and
// before traffic starts — the hook tracers and custom probes use.
func RunObserved(spec RunSpec, observe func(*fabric.Network)) (RunResult, error) {
	plan, err := ib.NewAddressPlan(spec.Topo.NumHosts(), spec.LMC)
	if err != nil {
		return RunResult{}, err
	}
	fcfg := spec.Fabric
	if spec.Faults != nil && !fcfg.Retry.Enabled() {
		fcfg.Retry = fabric.DefaultRetry()
	}
	net, err := fabric.NewNetwork(spec.Topo, plan, fcfg, spec.Seed)
	if err != nil {
		return RunResult{}, err
	}
	ropts := subnet.Options{
		MaxRoutingOptions: spec.MR,
		Root:              -1,
		SourceMultipath:   spec.SourceMultipath,
		Engine:            spec.Routing,
	}
	if _, err := subnet.Configure(net, ropts); err != nil {
		return RunResult{}, err
	}
	col := &metrics.Collector{
		WarmupEnd:  spec.Warmup,
		MeasureEnd: spec.Warmup + spec.Measure,
		Reorder:    reorder.NewBufferForHosts(spec.Topo.NumHosts()),
	}
	col.Attach(net)
	if observe != nil {
		observe(net)
	}
	// The invariant auditor's cheap checks ride along on every run; it
	// chains last so collector and observe-installed tracers keep their
	// hooks. Heavy whole-fabric scans only with spec.Check.
	aud := check.Attach(net, check.Config{Heavy: spec.Check})
	var inj *faults.Injector
	var dog *faults.Watchdog
	if spec.Faults != nil {
		inj, err = faults.Apply(net, spec.Faults, spec.FaultSeed, ropts)
		if err != nil {
			return RunResult{}, err
		}
		dog = faults.NewWatchdog(net, spec.Faults.Watchdog)
		dog.Start()
	}
	gen, err := traffic.NewGenerator(net, spec.Traffic)
	if err != nil {
		return RunResult{}, err
	}
	end := spec.Warmup + spec.Measure
	if err := runEngine(net, gen, end, end+spec.DrainGrace); err != nil {
		return RunResult{}, err
	}
	col.Finalize()
	res := RunResult{
		OfferedPerSwitch:   spec.Traffic.OfferedPerSwitchAvg(float64(spec.Topo.NumHosts()) / float64(spec.Topo.NumSwitches)),
		AcceptedPerSwitch:  col.AcceptedPerSwitch(),
		AvgLatencyNs:       col.Latency.Avg(),
		P99LatencyNs:       float64(col.Hist.Quantile(0.99)),
		PacketsMeasured:    col.Latency.Count,
		OutOfOrderFraction: col.OutOfOrderFraction(),
		ReorderPeakHeld:    col.Reorder.PeakHeld,
		ReorderAvgDelayNs:  col.Reorder.AvgReorderDelay(),
	}
	if fcfg.Retry.Enabled() {
		fs := net.FaultTotals()
		res.Retry = RetryStats{
			Retries:        fs.Retries,
			Lost:           fs.Lost,
			DroppedTimeout: fs.DroppedTimeout,
			MaxAttempts:    fs.MaxAttempts,
			BackoffCapNs:   int64(fcfg.Retry.EffectiveBackoffCap()),
		}
	}
	if inj != nil {
		dog.Stop()
		inj.Finalize()
		fs := net.FaultTotals()
		res.Degraded = DegradedStats{
			FaultsInjected:    inj.FaultsInjected,
			Repairs:           inj.Repairs,
			Reconfigs:         inj.ReconfigsDone,
			DroppedUnroutable: fs.DroppedUnroutable,
			DroppedOnDeadPort: fs.DroppedOnDeadPort,
			DroppedTimeout:    fs.DroppedTimeout,
			Retries:           fs.Retries,
			Lost:              fs.Lost,
			RerouteDrops:      inj.RerouteDrops,
			RecoveryLatencyNs: int64(inj.RecoveryLatency),
			WatchdogSamples:   dog.Samples(),
		}
		if vs := dog.Violations(); len(vs) > 0 {
			res.Degraded.WatchdogViolations = len(vs)
			res.Degraded.FirstViolation = vs[0].Error()
		}
		if err := inj.Err(); err != nil {
			return res, err
		}
	}
	arep := aud.Finalize()
	res.Audit = AuditStats{
		HopChecks:  arep.HopChecks,
		HeavyTicks: arep.HeavyTicks,
		Violations: int(arep.ViolationCount),
	}
	if err := arep.Err(); err != nil {
		res.Audit.First = err.Error()
		return res, err
	}
	// Hand the drained queue storage back to the sweep's arena (no-op
	// unless the spec carried sim.WithArena).
	net.Recycle()
	return res, nil
}

// runEngine starts traffic and runs the engine to the horizon,
// converting a fatal watchdog Violation (panic) into a returned error
// so campaign runs fail loudly but cleanly.
func runEngine(net *fabric.Network, gen *traffic.Generator, genEnd, horizon sim.Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if v, ok := r.(faults.Violation); ok {
				err = v
				return
			}
			panic(r)
		}
	}()
	gen.Start(genEnd)
	net.Run(horizon)
	return nil
}

// SweepPoint is one load point of a latency/throughput curve.
type SweepPoint struct {
	Offered    float64 // bytes/ns/switch
	Accepted   float64 // bytes/ns/switch
	AvgLatency float64 // ns
}

// LoadSweep runs the spec at each per-host load and returns the
// curve. Load points are independent simulations, so they execute on
// a worker pool sized to GOMAXPROCS; results are identical to a
// sequential sweep.
func LoadSweep(spec RunSpec, loads []float64) ([]SweepPoint, error) {
	// Load points share a queue arena: each finished run's drained
	// event-queue storage seeds the next instead of regrowing from
	// zero. The arena is thread-safe, so the worker pool can pass
	// storage between points freely; results stay bit-identical (the
	// scheduler is unchanged, only its allocation source).
	arena := sim.NewQueueArena()
	// Packet slab blocks recycle the same way (the sweep's dominant
	// allocation); by the time Recycle runs every observer of the
	// finished point has drained, so no packet reference survives.
	// Multi-sweep experiments (Figure 3's per-fraction series) pass one
	// arena in via the spec so blocks carry across sweeps — points
	// within one sweep run concurrently and mostly miss each other.
	pktArena := spec.Fabric.PacketArena
	if pktArena == nil {
		pktArena = fabric.NewPacketArena()
	}
	return runParallel(len(loads), func(i int) (SweepPoint, error) {
		s := spec
		s.Traffic.LoadBytesPerNsPerHost = loads[i]
		s.Fabric.PacketArena = pktArena
		s.Fabric.EngineOpts = append(append([]sim.EngineOption{}, s.Fabric.EngineOpts...),
			sim.WithCapacityHint(256*s.Topo.NumSwitches), sim.WithArena(arena))
		res, err := Run(s)
		if err != nil {
			return SweepPoint{}, err
		}
		return SweepPoint{
			Offered:    res.OfferedPerSwitch,
			Accepted:   res.AcceptedPerSwitch,
			AvgLatency: res.AvgLatencyNs,
		}, nil
	})
}

// Throughput extracts the network throughput from a sweep: the highest
// accepted traffic observed, the standard reading of the
// accepted-vs-offered plateau.
func Throughput(points []SweepPoint) float64 {
	best := 0.0
	for _, p := range points {
		if p.Accepted > best {
			best = p.Accepted
		}
	}
	return best
}

// DefaultLoads builds a geometric load grid (bytes/ns/host) from lo to
// hi with n points, covering the under- to over-saturation range.
func DefaultLoads(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := range out {
		out[i] = v
		v *= ratio
	}
	return out
}

// Scale selects how much work the experiment harnesses do. The paper's
// full protocol (10 topologies, long windows, 4 network sizes) takes
// hours; Quick keeps every qualitative comparison while fitting in CI.
type Scale struct {
	Sizes       []int // network sizes (switches)
	Topologies  int   // seeds per configuration
	LoadPoints  int
	Warmup      sim.Time
	Measure     sim.Time
	DrainGrace  sim.Time
	HostsPerSw  int
	FirstSeed   uint64
	LoadLo      float64 // per-host bytes/ns
	LoadHi      float64
	PacketSizes []int

	// EngineOpts flows into every run's fabric config — the hook for
	// the reference scheduler (sim.WithScheduler) and geometry
	// overrides the differential tests use. Empty means the engine
	// defaults (calendar queue).
	EngineOpts []sim.EngineOption

	// Check enables the invariant auditor's heavy scans on every run
	// (the -check CLI flag); results stay bit-identical.
	Check bool

	// Unfused is ignored. It switched off hop fusion, which was
	// removed; the field stays because the benchmark program sets it.
	Unfused bool

	// Arb selects the crossbar arbiter: fabric.ArbWake ("" defaults to
	// it) or fabric.ArbScan, the rescanning reference the arbiter
	// differential tests compare against. Results stay bit-identical
	// either way.
	Arb string
}

// QuickScale is sized for smoke tests and benchmarks.
func QuickScale() Scale {
	return Scale{
		Sizes:       []int{8, 16},
		Topologies:  2,
		LoadPoints:  5,
		Warmup:      30_000,
		Measure:     150_000,
		DrainGrace:  30_000,
		HostsPerSw:  4,
		FirstSeed:   1,
		LoadLo:      0.004,
		LoadHi:      0.10,
		PacketSizes: []int{32},
	}
}

// FullScale approximates the paper's protocol.
func FullScale() Scale {
	return Scale{
		Sizes:       []int{8, 16, 32, 64},
		Topologies:  10,
		LoadPoints:  10,
		Warmup:      100_000,
		Measure:     500_000,
		DrainGrace:  100_000,
		HostsPerSw:  4,
		FirstSeed:   1,
		LoadLo:      0.002,
		LoadHi:      0.15,
		PacketSizes: []int{32, 256},
	}
}

// topoSet generates the scale's topology seed set for one size/degree.
func (sc Scale) topoSet(size, links int) ([]*topology.Topology, error) {
	return topology.GenerateSeedSet(topology.IrregularSpec{
		NumSwitches: size, HostsPerSwitch: sc.HostsPerSw, InterSwitch: links,
	}, sc.FirstSeed, sc.Topologies)
}

// lmcFor returns the smallest LMC whose block holds MR options.
func lmcFor(mr int) uint {
	lmc := uint(0)
	for 1<<lmc < mr {
		lmc++
	}
	if lmc == 0 {
		lmc = 1 // always leave room for the adaptive bit
	}
	return lmc
}

// Spec assembles a RunSpec from the scale and explicit knobs; the
// harnesses and the CLI build every run through it.
func (sc Scale) Spec(topo *topology.Topology, mr, pktSize int, adaptiveFrac float64, pattern traffic.Pattern, seed uint64, enhanced bool) RunSpec {
	fcfg := fabric.DefaultConfig()
	fcfg.AdaptiveSwitches = enhanced
	fcfg.EngineOpts = sc.EngineOpts
	fcfg.Arb = sc.Arb
	return RunSpec{
		Topo:    topo,
		LMC:     lmcFor(mr),
		MR:      mr,
		Fabric:  fcfg,
		Traffic: traffic.Config{Pattern: pattern, PacketSize: pktSize, AdaptiveFraction: adaptiveFrac, LoadBytesPerNsPerHost: sc.LoadLo, Seed: seed},
		Warmup:  sc.Warmup, Measure: sc.Measure, DrainGrace: sc.DrainGrace,
		Seed:  seed,
		Check: sc.Check,
	}
}

// fmtFloat prints with the compact precision the report tables use.
func fmtFloat(v float64) string { return fmt.Sprintf("%.4f", v) }
