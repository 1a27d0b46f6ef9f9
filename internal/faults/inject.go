package faults

import (
	"errors"
	"fmt"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
	"ibasim/internal/subnet"
)

// Injector is a campaign applied to one network: it owns the
// scheduled fault events and accumulates the degraded-mode
// observables a run reports.
type Injector struct {
	net   *fabric.Network
	ropts subnet.Options
	sweep subnet.StagedOptions

	// FaultsInjected counts executed link-down and switch-down events;
	// Repairs counts link-up and switch-up events; ReconfigsDone counts
	// completed staged recoveries.
	FaultsInjected int
	Repairs        int
	ReconfigsDone  int

	// FirstFaultAt is when the first fault executed (-1 before any);
	// LastReconfigDoneAt is when the most recent staged recovery
	// finished reprogramming (-1 before any).
	FirstFaultAt       sim.Time
	LastReconfigDoneAt sim.Time

	// RecoveryLatency is the time from the first fault to the first
	// delivery at or after a completed reconfiguration — the ISSUE's
	// recovery-latency observable. -1 until observed.
	RecoveryLatency sim.Time

	// RerouteDrops counts buffered packets the staged reconfigs had to
	// discard as unroutable.
	RerouteDrops int

	errs []error
}

// Apply validates the campaign against the network's topology,
// expands randomized elements from seed, and schedules every event on
// the network's engine. ropts carries the routing parameters (MR,
// root, multipath) reconfigurations reuse. Apply chains the network's
// OnDelivered hook to observe recovery latency; call it after any
// metrics collector has attached.
func Apply(net *fabric.Network, c *Campaign, seed uint64, ropts subnet.Options) (*Injector, error) {
	st := subnet.DefaultStagedOptions()
	if c.SweepDelay > 0 || c.PerSwitchDelay > 0 {
		st.SweepDelay, st.PerSwitchDelay = c.SweepDelay, c.PerSwitchDelay
	}
	inj := &Injector{
		net:                net,
		ropts:              ropts,
		sweep:              st,
		FirstFaultAt:       -1,
		LastReconfigDoneAt: -1,
		RecoveryLatency:    -1,
	}
	topo := net.Topo
	if c.Random.N > 0 && len(topo.Links) == 0 {
		return nil, errors.New("faults: random flaps on a topology with no inter-switch links")
	}
	events := c.expand(
		func() int { return len(topo.Links) },
		func(i int) (int, int) { l := topo.Links[i]; return l.A, l.B },
		seed,
	)
	// Validate every event before scheduling anything.
	for _, e := range events {
		switch e.Kind {
		case LinkDown, LinkUp:
			if !topo.HasLink(e.A, e.B) {
				return nil, fmt.Errorf("faults: no link %d-%d in the topology", e.A, e.B)
			}
		case SwitchDown, SwitchUp:
			if e.Switch < 0 || e.Switch >= topo.NumSwitches {
				return nil, fmt.Errorf("faults: switch %d out of range [0,%d)", e.Switch, topo.NumSwitches)
			}
		}
	}
	for _, e := range events {
		e := e
		net.Engine.At(e.At, func() { inj.execute(e) })
	}
	prevDelivered := net.OnDelivered
	net.OnDelivered = func(p *ib.Packet) {
		inj.observeDelivery(p)
		if prevDelivered != nil {
			prevDelivered(p)
		}
	}
	return inj, nil
}

func (inj *Injector) execute(e Event) {
	now := inj.net.Engine.Now()
	fail := func(err error) {
		inj.errs = append(inj.errs, fmt.Errorf("faults: %s at t=%d: %w", e.Kind, now, err))
	}
	switch e.Kind {
	case LinkDown:
		if err := inj.net.SetLinkDown(e.A, e.B); err != nil {
			fail(err)
			return
		}
		inj.noteFault(now)
	case LinkUp:
		if err := inj.net.SetLinkUp(e.A, e.B); err != nil {
			fail(err)
			return
		}
		inj.Repairs++
	case SwitchDown:
		if err := inj.net.SetSwitchDown(e.Switch); err != nil {
			fail(err)
			return
		}
		inj.noteFault(now)
	case SwitchUp:
		if err := inj.net.SetSwitchUp(e.Switch); err != nil {
			fail(err)
			return
		}
		inj.Repairs++
	case Reconfig:
		st := inj.sweep
		st.OnDone = func(dropped int) {
			inj.ReconfigsDone++
			inj.RerouteDrops += dropped
			inj.LastReconfigDoneAt = inj.net.Engine.Now()
		}
		if _, err := subnet.ReconfigureStaged(inj.net, inj.ropts, st); err != nil {
			fail(err)
		}
	}
}

func (inj *Injector) noteFault(now sim.Time) {
	inj.FaultsInjected++
	if inj.FirstFaultAt < 0 {
		inj.FirstFaultAt = now
	}
}

// observeDelivery captures the recovery latency: the first delivery at
// or after the first completed reconfiguration, measured from the
// first fault.
func (inj *Injector) observeDelivery(p *ib.Packet) {
	if inj.RecoveryLatency >= 0 || inj.LastReconfigDoneAt < 0 || inj.FirstFaultAt < 0 {
		return
	}
	if p.DeliveredAt >= inj.LastReconfigDoneAt {
		inj.RecoveryLatency = p.DeliveredAt - inj.FirstFaultAt
	}
}

// Finalize closes the injector's accounting after the run. Recovery
// latency is latched as deliveries happen, so nothing is left to fold;
// the call remains for callers that close every observer.
func (inj *Injector) Finalize() {}

// Err returns the first campaign-execution error (a reconfiguration
// that could not route the surviving topology, for example), or nil.
func (inj *Injector) Err() error {
	if len(inj.errs) == 0 {
		return nil
	}
	return inj.errs[0]
}
