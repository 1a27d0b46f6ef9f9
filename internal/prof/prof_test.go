package prof

import (
	"context"
	"reflect"
	"runtime/pprof"
	"testing"
)

// TestPhaseRestoresEnclosingLabel records every label switch Phase
// makes: route and arbitrate fall back to no label when they end, and
// depart, which runs inside an arbitration pass, hands the label back
// to arbitrate rather than keeping its own.
func TestPhaseRestoresEnclosingLabel(t *testing.T) {
	var got []string
	set := setLabels
	setLabels = func(ctx context.Context) {
		v, _ := pprof.Label(ctx, "phase")
		got = append(got, v)
	}
	t.Cleanup(func() { setLabels = set })

	Phase(PhaseRoute, func() {})
	Phase(PhaseArbitrate, func() {
		Phase(PhaseDepart, func() {})
		Phase(PhaseDepart, func() {})
	})
	want := []string{
		PhaseRoute, "",
		PhaseArbitrate, PhaseDepart, PhaseArbitrate, PhaseDepart, PhaseArbitrate, "",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("label switches %q, want %q", got, want)
	}
}
