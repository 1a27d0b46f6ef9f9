package main

import (
	"fmt"
	"time"

	"ibasim/internal/check"
	"ibasim/internal/experiments"
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

// item is one simulation of a workload as the traced run replays it:
// the topology's generation parameters, the run spec built on that
// topology, and the public entry point whose result the replay must
// reproduce.
type item struct {
	topo topology.IrregularSpec
	spec experiments.RunSpec
	ref  func() (experiments.RunResult, error)
}

// observers selects which optional observers the replay attaches. The
// simulated behaviour is identical either way; only the time the
// observers cost changes.
type observers struct{ collector, auditor bool }

var allObservers = observers{collector: true, auditor: true}

// replayed is what one replay measured.
type replayed struct {
	res      experiments.RunResult // complete only with every observer attached
	total    time.Duration         // the whole call sequence
	runPhase time.Duration         // traffic start + Network.Run

	events, hops, fused, parks, generated uint64
	util                                  fabric.UtilizationSummary
}

// replay repeats experiments.RunObserved's call sequence with a span
// around every call into a layer: ib.NewAddressPlan → fabric.NewNetwork
// → subnet.Configure → Collector.Attach → check.Attach → (faults.Apply,
// Watchdog.Start) → traffic.NewGenerator → Start + Network.Run → the
// Finalize calls. With every observer attached its RunResult must equal
// the entry point's; that equality is what shows the replay runs the
// same program.
func replay(tr *tracer, run int, spec experiments.RunSpec, obs observers) (out replayed, err error) {
	root := tr.open(run, 0, "experiments.run")
	defer func() {
		tr.close(root)
		out.total = tr.dur(root)
	}()
	var plan *ib.AddressPlan
	tr.do(run, root, "ib.address_plan", func() { plan, err = ib.NewAddressPlan(spec.Topo.NumHosts(), spec.LMC) })
	if err != nil {
		return out, err
	}
	fcfg := spec.Fabric
	if spec.Faults != nil && !fcfg.Retry.Enabled() {
		fcfg.Retry = fabric.DefaultRetry()
	}
	var net *fabric.Network
	tr.do(run, root, "fabric.new_network", func() { net, err = fabric.NewNetwork(spec.Topo, plan, fcfg, spec.Seed) })
	if err != nil {
		return out, err
	}
	ropts := subnet.Options{
		MaxRoutingOptions: spec.MR,
		Root:              -1,
		SourceMultipath:   spec.SourceMultipath,
		Engine:            spec.Routing,
	}
	tr.do(run, root, "subnet.configure", func() { _, err = subnet.Configure(net, ropts) })
	if err != nil {
		return out, err
	}
	var col *metrics.Collector
	if obs.collector {
		tr.do(run, root, "metrics.attach", func() {
			col = &metrics.Collector{
				WarmupEnd:  spec.Warmup,
				MeasureEnd: spec.Warmup + spec.Measure,
				Reorder:    reorder.NewBufferForHosts(spec.Topo.NumHosts()),
			}
			col.Attach(net)
		})
	}
	var aud *check.Auditor
	if obs.auditor {
		tr.do(run, root, "check.attach", func() { aud = check.Attach(net, check.Config{Heavy: spec.Check}) })
	}
	var inj *faults.Injector
	var dog *faults.Watchdog
	if spec.Faults != nil {
		tr.do(run, root, "faults.apply", func() {
			if inj, err = faults.Apply(net, spec.Faults, spec.FaultSeed, ropts); err != nil {
				return
			}
			dog = faults.NewWatchdog(net, spec.Faults.Watchdog)
			dog.Start()
		})
		if err != nil {
			return out, err
		}
	}
	var gen *traffic.Generator
	tr.do(run, root, "traffic.new_generator", func() { gen, err = traffic.NewGenerator(net, spec.Traffic) })
	if err != nil {
		return out, err
	}
	end := spec.Warmup + spec.Measure
	id := tr.do(run, root, "fabric.run", func() { err = runEngine(net, gen, end, end+spec.DrainGrace) })
	out.runPhase = tr.dur(id)
	if err != nil {
		return out, err
	}
	out.events, out.fused, out.parks, out.generated = net.Processed(), net.FusedKicks(), net.ArbParks(), gen.Generated()
	for _, sw := range net.Switches {
		out.hops += sw.TxPackets()
	}
	out.util = net.Utilization()

	if col != nil {
		tr.do(run, root, "metrics.finalize", col.Finalize)
		out.res = experiments.RunResult{
			OfferedPerSwitch:   spec.Traffic.OfferedPerSwitchAvg(float64(spec.Topo.NumHosts()) / float64(spec.Topo.NumSwitches)),
			AcceptedPerSwitch:  col.AcceptedPerSwitch(),
			AvgLatencyNs:       col.Latency.Avg(),
			P99LatencyNs:       float64(col.Hist.Quantile(0.99)),
			PacketsMeasured:    col.Latency.Count,
			OutOfOrderFraction: col.OutOfOrderFraction(),
			ReorderPeakHeld:    col.Reorder.PeakHeld,
			ReorderAvgDelayNs:  col.Reorder.AvgReorderDelay(),
		}
	}
	if fcfg.Retry.Enabled() {
		fs := net.FaultTotals()
		out.res.Retry = experiments.RetryStats{
			Retries:        fs.Retries,
			Lost:           fs.Lost,
			DroppedTimeout: fs.DroppedTimeout,
			MaxAttempts:    fs.MaxAttempts,
			BackoffCapNs:   int64(fcfg.Retry.EffectiveBackoffCap()),
		}
	}
	if inj != nil {
		tr.do(run, root, "faults.finalize", func() {
			dog.Stop()
			inj.Finalize()
		})
		fs := net.FaultTotals()
		out.res.Degraded = experiments.DegradedStats{
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
			out.res.Degraded.WatchdogViolations = len(vs)
			out.res.Degraded.FirstViolation = vs[0].Error()
		}
		if err := inj.Err(); err != nil {
			return out, err
		}
	}
	if aud != nil {
		var arep check.Report
		tr.do(run, root, "check.finalize", func() { arep = aud.Finalize() })
		out.res.Audit = experiments.AuditStats{
			HopChecks:  arep.HopChecks,
			HeavyTicks: arep.HeavyTicks,
			Violations: int(arep.ViolationCount),
		}
		if err := arep.Err(); err != nil {
			out.res.Audit.First = err.Error()
			return out, err
		}
	}
	net.Recycle()
	return out, nil
}

// runEngine starts traffic and runs the engine to the horizon, turning
// the fault watchdog's Violation panic into an error as the experiments
// runner does.
func runEngine(net *fabric.Network, gen *traffic.Generator, genEnd, horizon sim.Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			v, ok := r.(faults.Violation)
			if !ok {
				panic(r)
			}
			err = v
		}
	}()
	gen.Start(genEnd)
	net.Run(horizon)
	return nil
}

// routeTopology times the routing layer alone: the up*/down* engine
// subnet.Configure builds by default, plus its deadlock-freedom check.
func routeTopology(topo *topology.Topology) error {
	eng, err := routing.UpDownBuilder(-1)(topo)
	if err != nil {
		return err
	}
	if err := eng.Verify(); err != nil {
		return fmt.Errorf("routing: %w", err)
	}
	return nil
}
