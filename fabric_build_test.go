package ibasim

import (
	"runtime"
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/subnet"
	"ibasim/internal/topology"
)

// buildFabric is one fabric build as every simulated point makes it:
// a 64-switch irregular topology with 4 hosts and 4 links per switch,
// its LMC-1 address plan, the wired network and the subnet manager's
// up*/down* and FA tables at MR 2.
func buildFabric(seed uint64) error {
	topo, err := topology.GenerateIrregular(topology.IrregularSpec{
		NumSwitches: 64, HostsPerSwitch: 4, InterSwitch: 4, Seed: seed,
	})
	if err != nil {
		return err
	}
	plan, err := ib.NewAddressPlan(topo.NumHosts(), 1)
	if err != nil {
		return err
	}
	net, err := fabric.NewNetwork(topo, plan, fabric.DefaultConfig(), seed)
	if err != nil {
		return err
	}
	_, err = subnet.Configure(net, subnet.DefaultOptions())
	return err
}

// maxBuildMallocs bounds the heap objects one 64-switch fabric build
// allocates.
const maxBuildMallocs = 8000

// TestFabricBuildAllocs is the allocation gate of fabric construction:
// topology generation, NewNetwork and Configure at 64 switches.
func TestFabricBuildAllocs(t *testing.T) {
	var err error
	allocs := mallocsPerRun(20, func() {
		if e := buildFabric(1); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.1f mallocs per 64-switch build", allocs)
	if allocs > maxBuildMallocs {
		t.Fatalf("a 64-switch fabric build makes %.1f mallocs, want at most %d", allocs, maxBuildMallocs)
	}
}

// mallocsPerRun is testing.AllocsPerRun without its rounding down: it
// runs f once to warm up, then runs times, and returns the mean number
// of heap objects allocated per run as a float. Like AllocsPerRun it
// pins GOMAXPROCS to 1 while it measures.
func mallocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
