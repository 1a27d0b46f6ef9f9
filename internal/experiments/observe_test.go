package experiments

import (
	"reflect"
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/trace"
)

// TestTracingDoesNotPerturbExecution: attaching a packet tracer only
// adds callbacks. The traced run must dispatch exactly as many engine
// events as its unobserved twin and return an equal result, in the
// uncongested regime and in a saturated hot-spot storm.
func TestTracingDoesNotPerturbExecution(t *testing.T) {
	topo := diffTopo(t)
	for _, tc := range []struct {
		name string
		spec RunSpec
	}{
		{"uniform", diffSpec(topo)},
		{"storm", diffStormSpec(t, topo)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(traced bool) (RunResult, uint64) {
				t.Helper()
				rec := trace.NewRecorder(64)
				var net *fabric.Network
				res, err := RunObserved(tc.spec, func(n *fabric.Network) {
					if traced {
						rec.Attach(n)
					}
					net = n
				})
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if traced && rec.Total() == 0 {
					t.Fatal("tracer recorded nothing")
				}
				return res, net.Processed()
			}
			plain, plainEvents := run(false)
			traced, tracedEvents := run(true)
			if tracedEvents != plainEvents {
				t.Errorf("traced run dispatched %d events, unobserved twin %d", tracedEvents, plainEvents)
			}
			if !reflect.DeepEqual(traced, plain) {
				t.Errorf("traced result differs:\n got %+v\nwant %+v", traced, plain)
			}
		})
	}
}

// TestTracerCountsAuditedHops: the tracer's adaptive and escape hop
// counts split exactly the forwarding decisions the auditor checks,
// the denominator ibsim -packet-trace prints.
func TestTracerCountsAuditedHops(t *testing.T) {
	rec := trace.NewRecorder(16)
	res, err := RunObserved(diffSpec(diffTopo(t)), rec.Attach)
	if err != nil {
		t.Fatal(err)
	}
	if hops := rec.AdaptiveHops + rec.EscapeHops; hops == 0 || hops != res.Audit.HopChecks {
		t.Fatalf("tracer counted %d hops (%d events), auditor %d hop checks", hops, rec.Total(), res.Audit.HopChecks)
	}
}
