package experiments

import (
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/faults"
	"ibasim/internal/sim"
	"ibasim/internal/topology"
	"ibasim/internal/traffic"
)

// Shared fixtures of the arbiter differential matrix and the
// observation test. Each runs full simulations (warmup + measured
// window + drain) on one irregular topology and compares complete
// RunResults — floats included — against a reference run.

func diffTopo(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.GenerateIrregular(topology.IrregularSpec{
		NumSwitches: 8, HostsPerSwitch: 4, InterSwitch: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func diffSpec(topo *topology.Topology, opts ...sim.EngineOption) RunSpec {
	cfg := fabric.DefaultConfig()
	cfg.EngineOpts = opts
	return RunSpec{
		Topo:    topo,
		LMC:     1,
		MR:      2,
		Fabric:  cfg,
		Traffic: traffic.Config{Pattern: traffic.Uniform{NumHosts: topo.NumHosts()}, PacketSize: 32, AdaptiveFraction: 0.75, LoadBytesPerNsPerHost: 0.03, Seed: 11},
		Warmup:  20_000, Measure: 100_000, DrainGrace: 30_000,
		Seed: 11,
	}
}

// diffFaultSpec is diffSpec under a fault campaign: two link flaps with
// staged SM recoveries, host retries and the invariant watchdog.
func diffFaultSpec(topo *topology.Topology) RunSpec {
	l0, l1 := topo.Links[0], topo.Links[1]
	spec := diffSpec(topo)
	spec.Measure = 150_000
	spec.DrainGrace = 80_000
	spec.Faults = &faults.Campaign{
		Events: []faults.Event{
			{At: 40_000, Kind: faults.LinkDown, A: l0.A, B: l0.B},
			{At: 70_000, Kind: faults.LinkUp, A: l0.A, B: l0.B},
			{At: 80_000, Kind: faults.LinkDown, A: l1.A, B: l1.B},
			{At: 130_000, Kind: faults.LinkUp, A: l1.A, B: l1.B},
		},
		AutoReconfig: 5_000,
		Watchdog:     faults.WatchdogConfig{SampleEvery: 5_000, Horizon: 120_000},
	}
	spec.FaultSeed = 3
	return spec
}

// diffStormSpec overloads a 40 % hot-spot destination far past
// saturation: most service points stay blocked most of the time.
func diffStormSpec(t testing.TB, topo *topology.Topology) RunSpec {
	t.Helper()
	hot, err := traffic.NewHotSpot(topo.NumHosts(), 0.4, sim.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	spec := diffSpec(topo)
	spec.Traffic.Pattern = hot
	spec.Traffic.LoadBytesPerNsPerHost = 0.25 // deep saturation
	return spec
}
