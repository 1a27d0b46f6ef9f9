package fabric

import (
	"testing"

	"ibasim/internal/ib"
)

// TestAuditHopView pins the auditor's per-hop view: for a wired output
// port it returns that port's own credit counter and whether the port
// faces a host; for an unwired port or a port past the switch's last
// it reports ok=false.
func TestAuditHopView(t *testing.T) {
	net := hotpathNet(t)
	for _, sw := range net.Switches {
		unwired := 0
		for out, o := range sw.out {
			if o == nil {
				unwired++
				if _, _, _, ok := sw.AuditHopView(ib.PortID(out)); ok {
					t.Fatalf("switch %d: unwired port %d accepted", sw.id, out)
				}
				continue
			}
			// Tag the counter so a view of another port is visible.
			o.credits = 1000 + 10*sw.id + out
			_, credits, hostFacing, ok := sw.AuditHopView(ib.PortID(out))
			if !ok || credits != o.credits || hostFacing != (o.peerHost != nil) {
				t.Fatalf("switch %d port %d: view (%d, host %v, %v), want (%d, host %v, true)",
					sw.id, out, credits, hostFacing, ok, o.credits, o.peerHost != nil)
			}
		}
		if unwired == 0 {
			t.Fatalf("switch %d has no unwired port to probe", sw.id)
		}
		if _, _, _, ok := sw.AuditHopView(ib.PortID(len(sw.out))); ok {
			t.Fatalf("switch %d: port %d past the last accepted", sw.id, len(sw.out))
		}
	}
}
