package experiments

import (
	"reflect"
	"testing"

	"ibasim/internal/core"
	"ibasim/internal/fabric"
	"ibasim/internal/sim"
)

// TestSchedulerOrderMatrix is the experiment-level gate on dispatch
// order among events that share a timestamp. Default-mode runs are
// blind to it: status-aware selection at arbitration time draws no
// RNG, so a scheduler that swapped two same-instant events can still
// reproduce the Figure 3 and family-sweep goldens. Static selection
// draws the RNG in the order packets are routed or arbitrated, so a
// swap there moves results. The matrix runs all four §4.3 selection
// modes on the uniform fixture, the hot-spot storm and the retry
// campaign (send timeouts, drops, re-injection and Reroute), each at
// MR 2 and MR 4, and compares complete RunResults of the default engine
// (calendar queue, wake arbiter) against the heap scheduler and
// against the scan arbiter. The MR 4 variants are what make the
// arbitration/static leg see order: at MR 2 its one adaptive slot
// turns the static draw into Intn(1), and its results equal the
// status-aware leg's.
func TestSchedulerOrderMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many full simulations")
	}
	topo := diffTopo(t)
	fixtures := []struct {
		name string
		spec RunSpec
	}{
		{"uniform", diffSpec(topo)},
		{"storm", diffStormSpec(t, topo)},
		{"retry", diffRetrySpec(t, topo)},
		{"uniform-mr4", withMR4(diffSpec(topo))},
		{"storm-mr4", withMR4(diffStormSpec(t, topo))},
		{"retry-mr4", withMR4(diffRetrySpec(t, topo))},
	}
	run := func(spec RunSpec, sel core.SelectionConfig, arb string, opts ...sim.EngineOption) RunResult {
		t.Helper()
		s := spec
		s.Fabric.Selection = sel
		s.Fabric.Arb = arb
		s.Fabric.EngineOpts = opts
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s arb=%s: %v", sel, arb, err)
		}
		return res
	}
	for _, f := range fixtures {
		var byMode []RunResult
		for _, sel := range selectionModes {
			want := run(f.spec, sel, fabric.ArbWake)
			if want.PacketsMeasured == 0 {
				t.Fatalf("%s %s: no packet measured", f.name, sel)
			}
			if f.spec.Faults != nil && want.Retry.Retries == 0 {
				t.Fatalf("%s %s: no packet was retried", f.name, sel)
			}
			if got := run(f.spec, sel, fabric.ArbWake, sim.WithScheduler(sim.SchedulerHeap)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: heap scheduler diverged from calendar:\n got %+v\nwant %+v", f.name, sel, got, want)
			}
			if got := run(f.spec, sel, fabric.ArbScan); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: scan arbiter diverged from wake:\n got %+v\nwant %+v", f.name, sel, got, want)
			}
			byMode = append(byMode, want)
		}
		// The modes must actually reach the fabric, or the cells above
		// repeat one comparison four times.
		if reflect.DeepEqual(byMode[0], byMode[3]) {
			t.Errorf("%s: %s and %s gave identical results", f.name, selectionModes[0], selectionModes[3])
		}
	}
}
