package subnet

import (
	"fmt"

	"ibasim/internal/fabric"
	"ibasim/internal/sim"
	"ibasim/internal/topology"
)

// StagedOptions models the timing of a real subnet-manager recovery:
// the SM does not learn about a fault instantly, and it reprograms
// forwarding tables one switch at a time over the management network
// (one VS command set per switch), not atomically.
type StagedOptions struct {
	// SweepDelay is the time between ReconfigureStaged being invoked
	// (the fault instant, typically) and the SM having swept the
	// subnet, computed new routes and started reprogramming.
	SweepDelay sim.Time

	// PerSwitchDelay is the VS-command latency of reprogramming one
	// switch; switch i is reprogrammed SweepDelay + (i+1)*PerSwitchDelay
	// after the call, in ascending switch-ID order.
	PerSwitchDelay sim.Time

	// OnDone, if set, runs right after the last switch is reprogrammed.
	// dropped is the total number of buffered packets the per-switch
	// reroutes had to discard as unroutable.
	OnDone func(dropped int)
}

// DefaultStagedOptions uses a 5 µs sweep and 1 µs per switch — small
// against the paper's measurement windows but long enough that the
// transient is observable.
func DefaultStagedOptions() StagedOptions {
	return StagedOptions{SweepDelay: 5_000, PerSwitchDelay: 1_000}
}

// ReconfigureStaged reacts to failed cables the way an IBA subnet
// manager does after a sweep discovers a topology change: it routes
// around the failure set (the given links plus every link already
// down, as a real sweep would discover), reprograms every forwarding
// table through the same layout Configure writes (port numbering is
// unchanged — ports are physical), and re-routes packets already
// buffered in switches so none keeps waiting on a dead port. The
// failed links must leave the switch graph connected.
//
// The new tables are installed one switch at a time on the network's
// event clock. From the sweep's start until a given switch is
// reprogrammed, that switch forwards on its escape (up*/down*) option
// only — its adaptive options were computed against the dead topology
// and are not trusted. Escape paths stale-referencing a failed link
// leave packets parked on the dead port until that switch's
// reprogram+reroute; packets whose DLID the new tables cannot route
// are dropped and counted (the host-side retry policy,
// fabric.Config.Retry, re-injects them). Zero delays model a planned
// reconfiguration: every switch is reprogrammed at the calling
// instant, before any packet moves.
//
// The call itself only validates, computes routes and schedules the
// sweep; it returns doneAt, the instant the last switch's table is in
// place: now + SweepDelay + n·PerSwitchDelay for n switches. Duplicate
// links in failed are tolerated, and re-failing a dead link is a no-op.
func ReconfigureStaged(net *fabric.Network, opts Options, st StagedOptions, failed ...topology.Link) (doneAt sim.Time, err error) {
	if st.SweepDelay < 0 || st.PerSwitchDelay < 0 {
		return 0, fmt.Errorf("subnet: negative staged-reconfig delay %+v", st)
	}
	for _, l := range failed {
		if err := net.SetLinkDown(l.A, l.B); err != nil {
			return 0, err
		}
	}
	// A sweep discovers every dead cable, not only the ones this call
	// names — including links downed by earlier faults or whole-switch
	// failures.
	surviving := net.Topo.Without(net.DownLinks()...)
	if !surviving.Connected() {
		return 0, fmt.Errorf("subnet: failures disconnect the network")
	}
	l, err := newLayout(net, surviving, opts)
	if err != nil {
		return 0, err
	}

	// Sweep end: every switch's table is now known-stale; restrict all
	// of them to escape forwarding until each is reprogrammed.
	net.Engine.Schedule(st.SweepDelay, func() {
		for _, sw := range net.Switches {
			sw.SetEscapeOnly(true)
		}
	})
	droppedTotal := 0
	for s, sw := range net.Switches {
		at := st.SweepDelay + sim.Time(s+1)*st.PerSwitchDelay
		net.Engine.Schedule(at, func() {
			if err := l.write(net, s); err != nil {
				// newLayout validated the routing and the block
				// geometry; a write failure here is a programming bug,
				// not a runtime condition.
				panic(fmt.Sprintf("subnet: staged reprogram switch %d: %v", s, err))
			}
			sw.SetEscapeOnly(false)
			droppedTotal += sw.Reroute()
			if s == len(net.Switches)-1 && st.OnDone != nil {
				st.OnDone(droppedTotal)
			}
		})
	}
	return net.Engine.Now() + st.SweepDelay + sim.Time(len(net.Switches))*st.PerSwitchDelay, nil
}
