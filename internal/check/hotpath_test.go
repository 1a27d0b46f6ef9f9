package check_test

import (
	"runtime"
	"testing"

	"ibasim/internal/check"
	"ibasim/internal/fabric"
	"ibasim/internal/topology"
)

// TestInjectZeroAllocsWithAuditor extends the fabric's injection
// alloc gate across the auditor's always-on hooks: with the cheap
// checks attached (the default in every experiments run), creating a
// packet, injecting it and running it through to delivery must stay
// at the slab-refill amortized allocation rate. The hop re-check and
// the in-order bookkeeping both run on warm, fixed-size state.
func TestInjectZeroAllocsWithAuditor(t *testing.T) {
	topo, err := topology.Line(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	net := buildNet(t, topo, 1, 2, true, fabric.ArbWake)
	check.Attach(net, check.Config{})

	for name, adaptive := range map[string]bool{"adaptive": true, "deterministic": false} {
		adaptive := adaptive
		t.Run(name, func(t *testing.T) {
			h := net.Hosts[0]
			inject := func() {
				h.Inject(net.NewPacket(0, 7, 32, adaptive))
				net.Engine.RunUntilIdle()
			}
			for i := 0; i < 600; i++ { // warm pools and span a slab boundary
				inject()
			}
			if allocs := mallocsPerRun(512, inject); allocs > 0.02 {
				t.Fatalf("steady-state injection with auditor allocates %v objects per packet, want amortized slab refill only", allocs)
			}
		})
	}
}

// mallocsPerRun is testing.AllocsPerRun without its rounding down: it
// runs f once to warm up, then runs times, and returns the mean number
// of heap objects allocated per run as a float, so a bound below one
// allocation per run is a real bound. Like AllocsPerRun it pins
// GOMAXPROCS to 1 while it measures.
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
