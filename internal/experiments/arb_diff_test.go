package experiments

import (
	"reflect"
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/sim"
	"ibasim/internal/trace"
)

// The wake-list arbiter optimizes how arbitration work is found, not
// what arbitration decides. These tests enforce it with the scanning
// arbiter (fabric.ArbScan) as the differential oracle, comparing
// complete RunResults — floats included — across queue geometries,
// schedulers, the invariant auditor, fault campaigns and a hot-spot
// contention storm that keeps most service points parked on the wait
// lists.

func arbVariant(t *testing.T, spec RunSpec, arb string) RunResult {
	t.Helper()
	s := spec
	s.Fabric.Arb = arb
	res, err := Run(s)
	if err != nil {
		t.Fatalf("arb=%s: %v", arb, err)
	}
	return res
}

// TestArbBitExact sweeps the calendar geometries of the scheduler
// differential (tiny wheels wrap and overflow constantly, so kicks and
// credit returns land in every structural regime) plus the heap
// scheduler, comparing wake-arbiter runs against the scan-arbiter
// oracle.
func TestArbBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many full simulations")
	}
	topo := diffTopo(t)
	variants := []struct {
		name string
		opts []sim.EngineOption
	}{
		{"wheel-3-0", []sim.EngineOption{sim.WithWheelGeometry(3, 0)}},
		{"wheel-3-2", []sim.EngineOption{sim.WithWheelGeometry(3, 2)}},
		{"wheel-4-1", []sim.EngineOption{sim.WithWheelGeometry(4, 1)}},
		{"wheel-6-3", []sim.EngineOption{sim.WithWheelGeometry(6, 3)}},
		{"wheel-12-2", []sim.EngineOption{sim.WithWheelGeometry(12, 2)}},
		{"heap", []sim.EngineOption{sim.WithScheduler(sim.SchedulerHeap)}},
	}
	for _, v := range variants {
		spec := diffSpec(topo, v.opts...)
		want := arbVariant(t, spec, fabric.ArbScan)
		if got := arbVariant(t, spec, fabric.ArbWake); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wake diverged from scan:\n got %+v\nwant %+v", v.name, got, want)
		}
	}
}

// TestArbBitExactChecked repeats the differential with the heavy
// invariant auditor on: the wake arbiter must neither perturb results
// under audit nor trip the auditor, and the audit counters themselves
// must match event for event.
func TestArbBitExactChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	spec := diffSpec(diffTopo(t))
	spec.Check = true
	want := arbVariant(t, spec, fabric.ArbScan)
	if want.Audit.HopChecks == 0 || want.Audit.HeavyTicks == 0 {
		t.Fatalf("auditor did not run: %+v", want.Audit)
	}
	if want.Audit.Violations != 0 {
		t.Fatalf("scan oracle run is not clean: %+v", want.Audit)
	}
	if got := arbVariant(t, spec, fabric.ArbWake); !reflect.DeepEqual(got, want) {
		t.Errorf("checked wake diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestArbBitExactFaults runs the shared fault campaigns under both
// arbiters: dead ports leave stale link-waiter entries,
// repairs wake wholesale, and Reroute rewrites the routing decisions —
// every degraded-mode observable must still match. The retry campaign
// adds send timeouts: hosts drop queue heads and re-inject them.
func TestArbBitExactFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full fault campaigns")
	}
	topo := diffTopo(t)
	for _, c := range []struct {
		name  string
		spec  RunSpec
		retry bool
	}{
		{"fault", diffFaultSpec(topo), false},
		{"retry", diffRetrySpec(t, topo), true},
	} {
		want := arbVariant(t, c.spec, fabric.ArbScan)
		if want.Degraded.FaultsInjected == 0 || want.Degraded.Reconfigs == 0 {
			t.Fatalf("%s: campaign did not exercise faults: %+v", c.name, want.Degraded)
		}
		if c.retry && want.Retry.Retries == 0 {
			t.Fatalf("%s: no packet was retried: %+v", c.name, want.Retry)
		}
		if got := arbVariant(t, c.spec, fabric.ArbWake); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: faults wake diverged:\n got %+v\nwant %+v", c.name, got, want)
		}
	}
}

// TestArbBitExactContentionStorm overloads a hot-spot destination far
// past saturation — the regime where nearly every service point is
// parked on a credit or link wait list most of the time, and a single
// missed or spurious wake would shift the delivery order.
func TestArbBitExactContentionStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("runs saturated simulations")
	}
	spec := diffStormSpec(t, diffTopo(t))
	want := arbVariant(t, spec, fabric.ArbScan)
	got := arbVariant(t, spec, fabric.ArbWake)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("contention storm wake diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestArbTraceIdentical pins the strongest equivalence: the recorded
// per-hop event sequence — every receive, adaptive/escape selection
// and delivery, in order — is identical under both arbiters. Attaching
// the tracer does not force the scan arbiter: the wake arbiter serves
// the same entries at the same times, so traced runs keep the fast
// path.
func TestArbTraceIdentical(t *testing.T) {
	spec := diffSpec(diffTopo(t))
	runTraced := func(arb string) (*trace.Recorder, bool) {
		s := spec
		s.Fabric.Arb = arb
		rec := trace.NewRecorder(4096)
		var netRef *fabric.Network
		_, err := RunObserved(s, func(n *fabric.Network) {
			rec.Attach(n)
			netRef = n
		})
		if err != nil {
			t.Fatalf("arb=%s: %v", arb, err)
		}
		return rec, netRef.ArbWake()
	}
	recWake, wakeArmed := runTraced(fabric.ArbWake)
	recScan, scanArmed := runTraced(fabric.ArbScan)
	if !wakeArmed {
		t.Error("tracer attachment disarmed the wake arbiter; tracing composes with wake mode")
	}
	if scanArmed {
		t.Error("scan-arbiter traced run reports wake mode")
	}
	if recWake.Total() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	if recWake.Total() != recScan.Total() {
		t.Errorf("event totals differ: wake=%d scan=%d", recWake.Total(), recScan.Total())
	}
	wake, scan := recWake.Events(), recScan.Events()
	if !reflect.DeepEqual(wake, scan) {
		for i := range wake {
			if i >= len(scan) || wake[i] != scan[i] {
				t.Fatalf("traced sequences diverge at event %d:\n wake %s\n scan %s", i, wake[i], scan[i])
			}
		}
		t.Fatalf("traced sequences differ in length: %d vs %d", len(wake), len(scan))
	}
}

// TestArbWakeEngagesInRealRuns complements the differentials: a plain
// default-config run must actually run the wake arbiter and park
// service points — otherwise every equivalence above is vacuous.
func TestArbWakeEngagesInRealRuns(t *testing.T) {
	spec := diffSpec(diffTopo(t))
	var netRef *fabric.Network
	if _, err := RunObserved(spec, func(n *fabric.Network) { netRef = n }); err != nil {
		t.Fatal(err)
	}
	if !netRef.ArbWake() {
		t.Error("default run does not use the wake arbiter")
	}
	if netRef.ArbParks() == 0 {
		t.Error("default run parked no service points")
	}
}
