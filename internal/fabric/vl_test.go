package fabric

import (
	"testing"

	"ibasim/internal/ib"
)

// TestVLOfRow pins the SL-to-VL mapping every switch applies: service
// level sl travels on VL sl % NumVLs on every output link, the
// auditor's per-hop view reads that VL's credits, and it rejects an SL
// outside [0, MaxVLs). NumVLs outside [1, MaxVLs] never reaches wiring.
func TestVLOfRow(t *testing.T) {
	for _, nvl := range []int{1, 2, 4, ib.MaxVLs} {
		cfg := DefaultConfig()
		cfg.NumVLs = nvl
		net := hotpathNetCfg(t, cfg)
		for _, sw := range net.Switches {
			for sl := 0; sl < ib.MaxVLs; sl++ {
				if got := sw.outVL(sl); got != sl%nvl {
					t.Fatalf("NumVLs %d: switch %d maps SL %d to VL %d, want %d", nvl, sw.id, sl, got, sl%nvl)
				}
			}
			for out, o := range sw.out {
				if o == nil {
					continue
				}
				// Tag every VL's credit count so the view's VL is visible.
				for vl := range o.credits {
					o.credits[vl] = 1000 + vl
				}
				for sl := 0; sl < ib.MaxVLs; sl++ {
					_, credits, _, ok := sw.AuditHopView(ib.PortID(out), sl)
					if !ok || credits != 1000+sl%nvl {
						t.Fatalf("NumVLs %d: switch %d port %d SL %d: view (%d, %v), want (%d, true)",
							nvl, sw.id, out, sl, credits, ok, 1000+sl%nvl)
					}
				}
				for _, sl := range []int{-1, ib.MaxVLs} {
					if _, _, _, ok := sw.AuditHopView(ib.PortID(out), sl); ok {
						t.Fatalf("NumVLs %d: switch %d port %d accepted SL %d", nvl, sw.id, out, sl)
					}
				}
			}
		}
	}
	for _, nvl := range []int{0, ib.MaxVLs + 1} {
		cfg := DefaultConfig()
		cfg.NumVLs = nvl
		if err := cfg.Validate(); err == nil {
			t.Fatalf("NumVLs %d accepted", nvl)
		}
	}
}
