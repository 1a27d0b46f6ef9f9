package subnet

import (
	"strings"
	"testing"

	"ibasim/internal/ib"
	"ibasim/internal/topology"
)

func TestStagedEscapeOnlyTransientAndCompletion(t *testing.T) {
	net := buildNet(t, 8, 4, 1, 1, true)
	if _, err := Configure(net, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	failed := net.Topo.Links[0]
	done := -1
	st := StagedOptions{SweepDelay: 2_000, PerSwitchDelay: 500, OnDone: func(dropped int) { done = dropped }}
	doneAt, err := ReconfigureStaged(net, DefaultOptions(), st, failed)
	if err != nil {
		t.Fatal(err)
	}
	if want := net.Engine.Now() + 2_000 + 8*500; doneAt != want {
		t.Fatalf("doneAt = %d, want %d", doneAt, want)
	}

	// Before the sweep completes nothing has changed.
	net.Engine.Run(1_999)
	for _, sw := range net.Switches {
		if sw.EscapeOnly() {
			t.Fatal("escape-only before the sweep delay elapsed")
		}
	}
	// Inside the transient every switch forwards escape-only.
	net.Engine.Run(2_200)
	for _, sw := range net.Switches {
		if !sw.EscapeOnly() {
			t.Fatalf("switch %d not escape-only during the transient", sw.ID())
		}
	}
	// After doneAt the fabric is fully reprogrammed and adaptive again.
	net.Engine.Run(doneAt + 1)
	for _, sw := range net.Switches {
		if sw.EscapeOnly() {
			t.Fatalf("switch %d still escape-only after recovery", sw.ID())
		}
	}
	if done < 0 {
		t.Fatal("OnDone never called")
	}
	// The reprogrammed tables avoid the dead ports.
	pa, err := net.PortToNeighbor(failed.A, failed.B)
	if err != nil {
		t.Fatal(err)
	}
	for dst := 0; dst < net.Topo.NumHosts(); dst++ {
		base := net.Plan.BaseLID(dst)
		for off := 0; off < net.Plan.RangeSize(); off++ {
			if net.Switches[failed.A].Table().Get(base+ib.LID(off)) == pa {
				t.Fatalf("switch %d still routes dst %d over dead port", failed.A, dst)
			}
		}
	}
}

func TestStagedRejectsDisconnection(t *testing.T) {
	topo, err := topology.Line(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	net := netFromTopo(t, topo, 1, true)
	if _, err := Configure(net, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	_, err = ReconfigureStaged(net, DefaultOptions(), DefaultStagedOptions(), topo.Links[1])
	if err == nil {
		t.Fatal("disconnecting failure accepted")
	}
	if !strings.Contains(err.Error(), "subnet: failures disconnect the network") {
		t.Fatalf("error = %v", err)
	}
}

// TestReconfigureDuplicateFailedLinks: re-reporting an already-failed
// link (as repeated SM sweeps do) must be an idempotent no-op, and a
// later sweep for a different link must keep routing around the first.
func TestReconfigureDuplicateFailedLinks(t *testing.T) {
	net := buildNet(t, 16, 4, 1, 1, true)
	if _, err := Configure(net, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	first, second := net.Topo.Links[0], net.Topo.Links[5]
	if err := reconfigure(t, net, DefaultOptions(), first, first, first); err != nil {
		t.Fatalf("duplicate failed links rejected: %v", err)
	}
	if !net.LinkIsDown(first.A, first.B) {
		t.Fatal("failed link not marked down")
	}
	// Reconfiguring again with the same (already applied) failure set
	// must also succeed.
	if err := reconfigure(t, net, DefaultOptions(), first); err != nil {
		t.Fatalf("re-reconfigure of a known failure rejected: %v", err)
	}
	if err := reconfigure(t, net, DefaultOptions(), second); err != nil {
		t.Fatalf("second failure rejected: %v", err)
	}
	for _, l := range []topology.Link{first, second} {
		for _, end := range [][2]int{{l.A, l.B}, {l.B, l.A}} {
			dead, err := net.PortToNeighbor(end[0], end[1])
			if err != nil {
				t.Fatal(err)
			}
			tab := net.Switches[end[0]].Table()
			for dst := 0; dst < net.Topo.NumHosts(); dst++ {
				base := net.Plan.BaseLID(dst)
				for off := 0; off < net.Plan.RangeSize(); off++ {
					if tab.Get(base+ib.LID(off)) == dead {
						t.Fatalf("switch %d still routes dst %d over dead link %d-%d", end[0], dst, l.A, l.B)
					}
				}
			}
		}
	}
}

func TestStagedDuplicateFailedLinks(t *testing.T) {
	net := buildNet(t, 16, 4, 1, 1, true)
	if _, err := Configure(net, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	failed := net.Topo.Links[0]
	if _, err := ReconfigureStaged(net, DefaultOptions(), DefaultStagedOptions(), failed, failed); err != nil {
		t.Fatalf("duplicate failed links rejected: %v", err)
	}
	net.Engine.RunUntilIdle()
}

func TestReconfigureRejectsMROverRange(t *testing.T) {
	net := buildNet(t, 8, 4, 1, 1, true) // LMC 1 → LID range size 2
	if _, err := Configure(net, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxRoutingOptions = net.Plan.RangeSize() + 1
	err := reconfigure(t, net, opts, net.Topo.Links[0])
	if err == nil {
		t.Fatal("MR over LID range accepted")
	}
	if !strings.Contains(err.Error(), "exceeds LID range size") {
		t.Fatalf("error = %v", err)
	}
}
