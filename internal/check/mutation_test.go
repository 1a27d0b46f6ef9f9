package check_test

// The mutation smoke suite: each test deliberately breaks one paper
// rule — through the fabric's Tamper hooks, built for exactly this —
// and asserts the invariant auditor reports the breach under its
// expected name, under both crossbar arbiters. This is the proof that
// the auditor is not vacuous: a future refactor that introduces one of
// these bug classes will trip the same named invariant in any -check
// run. TestArbWakeExactUnderTamper then holds the two arbiters to the
// same results while the hooks fire mid-run.

import (
	"reflect"
	"testing"

	"ibasim/internal/check"
	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
	"ibasim/internal/subnet"
	"ibasim/internal/topology"
	"ibasim/internal/traffic"
)

// buildNet wires a configured fabric over topo: address plan with the
// given LMC, subnet tables with MR routing options, enhanced switches,
// crossbar arbiter arb.
func buildNet(t *testing.T, topo *topology.Topology, lmc uint, mr int, enhanced bool, arb string) *fabric.Network {
	t.Helper()
	plan, err := ib.NewAddressPlan(topo.NumHosts(), lmc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fabric.DefaultConfig()
	cfg.AdaptiveSwitches = enhanced
	cfg.Arb = arb
	net, err := fabric.NewNetwork(topo, plan, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := subnet.Configure(net, subnet.Options{MaxRoutingOptions: mr, Root: -1}); err != nil {
		t.Fatal(err)
	}
	return net
}

// irregularNet builds the paper's standard evaluation fabric: a random
// irregular topology with 4 inter-switch links and 4 hosts per switch.
func irregularNet(t *testing.T, arb string, switches int, lmc uint, mr int) *fabric.Network {
	t.Helper()
	topo, err := topology.GenerateIrregular(topology.IrregularSpec{
		NumSwitches: switches, HostsPerSwitch: 4, InterSwitch: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buildNet(t, topo, lmc, mr, true, arb)
}

// forEachArb runs body as one subtest per crossbar arbiter: the wake
// arbiter every real run uses, and the scan oracle.
func forEachArb(t *testing.T, body func(t *testing.T, arb string)) {
	for _, arb := range []string{fabric.ArbWake, fabric.ArbScan} {
		t.Run(arb, func(t *testing.T) { body(t, arb) })
	}
}

// runTraffic drives a generator workload to genEnd and lets the run
// drain until horizon.
func runTraffic(t *testing.T, net *fabric.Network, tc traffic.Config, genEnd, horizon sim.Time) {
	t.Helper()
	gen, err := traffic.NewGenerator(net, tc)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start(genEnd)
	net.Run(horizon)
}

// expect asserts the report contains the named invariant and the run
// was not silently clean.
func expect(t *testing.T, rep check.Report, invariant string) {
	t.Helper()
	if rep.Has(invariant) {
		return
	}
	names := make([]string, 0, len(rep.Violations))
	for _, v := range rep.Violations {
		names = append(names, v.Invariant)
	}
	t.Fatalf("mutation not detected: want invariant %q, got %d violations %v", invariant, rep.ViolationCount, names)
}

// TestMutationBaseline pins the suite's control: the exact fabric and
// workload the mutations corrupt reports ZERO violations when honest,
// so a detection below can only come from the seeded bug.
func TestMutationBaseline(t *testing.T) {
	forEachArb(t, func(t *testing.T, arb string) {
		net := irregularNet(t, arb, 16, 1, 2)
		aud := check.Attach(net, check.Config{Heavy: true})
		runTraffic(t, net, traffic.Config{
			Pattern: traffic.Uniform{NumHosts: net.Topo.NumHosts()}, PacketSize: 256,
			AdaptiveFraction: 1, LoadBytesPerNsPerHost: 0.06, Seed: 7,
		}, 60_000, 120_000)
		rep := aud.Finalize()
		if rep.ViolationCount != 0 {
			t.Fatalf("honest run reported %d violations, first: %v", rep.ViolationCount, rep.Err())
		}
		if rep.HopChecks == 0 || rep.HeavyTicks == 0 || rep.Created == 0 || rep.Delivered == 0 {
			t.Fatalf("auditor idle: %+v", rep)
		}
	})
}

// TestReportCreatedCountsGeneratedAndInjected pins the auditor's
// creation count, the left side of InvPacketConservation: on a drained
// run it equals the packets the generator made plus those injected,
// and every one of them was delivered. The auditor reads the count
// from the network, so attaching it sets no OnCreated hook and a
// generated packet is never built just to be counted.
func TestReportCreatedCountsGeneratedAndInjected(t *testing.T) {
	net := irregularNet(t, fabric.ArbWake, 8, 1, 2)
	aud := check.Attach(net, check.Config{})
	if net.OnCreated != nil {
		t.Fatal("attaching the auditor set OnCreated")
	}
	hosts := net.Topo.NumHosts()
	gen, err := traffic.NewGenerator(net, traffic.Config{
		Pattern: traffic.Uniform{NumHosts: hosts}, PacketSize: 64,
		AdaptiveFraction: 0.5, LoadBytesPerNsPerHost: 0.05, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen.Start(20_000)
	const injected = 40
	for i := 0; i < injected; i++ {
		src, dst := i%hosts, (i*7+3)%hosts
		net.Hosts[src].Inject(net.NewPacket(src, dst, 64, i%2 == 0))
	}
	net.Run(sim.Forever)
	rep := aud.Finalize()
	if rep.ViolationCount != 0 {
		t.Fatalf("%d violations, first: %v", rep.ViolationCount, rep.Err())
	}
	want := gen.Generated() + injected
	if gen.Generated() == 0 || rep.Created != want || rep.Delivered != want {
		t.Fatalf("created %d, delivered %d; want %d each (%d generated + %d injected)",
			rep.Created, rep.Delivered, want, gen.Generated(), injected)
	}
}

// Mutation 1: forge credits a transmitter never earned (+delta). The
// §4.4 counter now exceeds the physical buffer; the heavy scan's
// bound check c <= CMax catches it.
func TestMutationForgedCredits(t *testing.T) {
	forEachArb(t, func(t *testing.T, arb string) {
		net := irregularNet(t, arb, 8, 1, 2)
		s := 0
		nb := net.Topo.Neighbors(s)[0]
		if err := net.TamperCredits(s, nb, +5); err != nil {
			t.Fatal(err)
		}
		aud := check.Attach(net, check.Config{Heavy: true})
		net.Run(6_000)
		expect(t, aud.Finalize(), check.InvCreditBound)
	})
}

// Mutation 2: leak credits (-delta), the classic "drop path forgot to
// return buffer space" bug. Every runtime bound still holds — only
// the drained end-state check sees the channel never recover its full
// credit count. Cheap checks alone (no Heavy) must catch it.
func TestMutationLeakedCredits(t *testing.T) {
	forEachArb(t, func(t *testing.T, arb string) {
		net := irregularNet(t, arb, 8, 1, 2)
		s := 0
		nb := net.Topo.Neighbors(s)[0]
		if err := net.TamperCredits(s, nb, -3); err != nil {
			t.Fatal(err)
		}
		aud := check.Attach(net, check.Config{})
		net.Run(100)
		expect(t, aud.Finalize(), check.InvCreditsIntact)
	})
}

// Mutation 3: corrupt a buffer's occupancy counter so it disagrees
// with the credits its entries actually hold.
func TestMutationCorruptOccupancy(t *testing.T) {
	forEachArb(t, func(t *testing.T, arb string) {
		net := irregularNet(t, arb, 8, 1, 2)
		s := 0
		nb := net.Topo.Neighbors(s)[0]
		if err := net.TamperOccupancy(nb, s, +2); err != nil {
			t.Fatal(err)
		}
		aud := check.Attach(net, check.Config{Heavy: true})
		net.Run(6_000)
		expect(t, aud.Finalize(), check.InvCreditOccupancy)
	})
}

// Mutation 4: misorder the §4.1 interleaved table by one slot — every
// block's escape entry now holds a minimal adaptive hop. Minimal
// routing on an irregular network carries cyclic channel dependencies,
// so the live-table escape-CDG scan must flag Duato's condition. The
// cycle search is deterministic, so the report names one cycle.
func TestMutationSwappedTableSlots(t *testing.T) {
	forEachArb(t, func(t *testing.T, arb string) {
		net := irregularNet(t, arb, 16, 1, 2)
		net.TamperSwapTableSlots()
		aud := check.Attach(net, check.Config{Heavy: true})
		net.Run(6_000)
		rep := aud.Finalize()
		expect(t, rep, check.InvEscapeCDGAcyclic)
		const want = "check: escape-cdg-acyclic at t=5000: live escape tables form a cyclic channel dependency: (0->1) (1->2) (2->4) (4->8) (8->0) (0->1)"
		if got := rep.Err().Error(); got != want {
			t.Fatalf("first violation\n got %s\nwant %s", got, want)
		}
	})
}

// Mutation 5: skip the whole-packet adaptive-room check — admit a
// packet to an adaptive queue on TOTAL room (C_XY) instead of
// adaptive room (C_XYA, §4.4). Under congestion packets get admitted
// into the escape reserve; the per-hop admission re-check fires.
func TestMutationSkipAdaptiveRoomCheck(t *testing.T) {
	forEachArb(t, func(t *testing.T, arb string) {
		net := irregularNet(t, arb, 8, 1, 2)
		net.SetTamper(fabric.Tamper{SkipAdaptiveRoomCheck: true})
		aud := check.Attach(net, check.Config{})
		runTraffic(t, net, traffic.Config{
			Pattern: traffic.Uniform{NumHosts: net.Topo.NumHosts()}, PacketSize: 256,
			AdaptiveFraction: 1, LoadBytesPerNsPerHost: 0.12, Seed: 3,
		}, 60_000, 150_000)
		expect(t, aud.Finalize(), check.InvAdaptiveAdmission)
	})
}

// Mutation 6: drop the escape fallback — adaptive packets whose
// options are all busy just wait instead of taking the up*/down*
// escape path. On a credit cycle (a ring with antipodal traffic, the
// textbook construction) the adaptive sub-network alone deadlocks;
// the auditor must call it by name once the event queue starves.
func TestMutationNoEscapeFallback(t *testing.T) {
	forEachArb(t, func(t *testing.T, arb string) {
		const n = 8
		ring := topology.New(n, 1, 3)
		for i := 0; i < n; i++ {
			if err := ring.AddLink(i, (i+1)%n); err != nil {
				t.Fatal(err)
			}
		}
		net := buildNet(t, ring, 1, 2, true, arb)
		net.SetTamper(fabric.Tamper{NoEscapeFallback: true})
		aud := check.Attach(net, check.Config{Heavy: true})
		for i := range net.Hosts {
			h := net.Hosts[i]
			dst := (h.ID() + n/2) % n
			h.Engine().Schedule(0, func() {
				for k := 0; k < 64; k++ {
					h.Inject(net.NewPacket(h.ID(), dst, 256, true))
				}
			})
		}
		net.Run(400_000)
		expect(t, aud.Finalize(), check.InvDeadlock)
	})
}

// Mutation 7: ignore the §4.2 service-mode bit and route deterministic
// (DLID LSB 0) packets through their block's adaptive options. Under
// congestion flows diverge across paths and deliveries overtake; the
// in-order check fires.
func TestMutationAdaptiveDeterministic(t *testing.T) {
	forEachArb(t, func(t *testing.T, arb string) {
		net := irregularNet(t, arb, 16, 2, 4)
		net.SetTamper(fabric.Tamper{AdaptiveDeterministic: true})
		aud := check.Attach(net, check.Config{})
		runTraffic(t, net, traffic.Config{
			Pattern: traffic.Uniform{NumHosts: net.Topo.NumHosts()}, PacketSize: 256,
			AdaptiveFraction: 0, LoadBytesPerNsPerHost: 0.12, Seed: 5,
		}, 60_000, 150_000)
		expect(t, aud.Finalize(), check.InvDeterministicOrder)
	})
}

// Mutation 8: misconfigure the credit split so the escape reserve
// swallows the whole buffer (C_0 = CMax), bypassing Config.Validate.
// The split well-formedness check runs unconditionally at Finalize.
func TestMutationIllFormedSplit(t *testing.T) {
	forEachArb(t, func(t *testing.T, arb string) {
		net := irregularNet(t, arb, 8, 1, 2)
		net.TamperSplit(net.Cfg.Split.CMax)
		aud := check.Attach(net, check.Config{})
		net.Run(100)
		expect(t, aud.Finalize(), check.InvCreditSplit)
	})
}

// tamperStep fires one tamper model change or mutation hook at a
// simulated time.
type tamperStep struct {
	at  sim.Time
	act tamperAct
}

// tamperAct changes a running network's tamper model or fires a hook.
type tamperAct func(t *testing.T, net *fabric.Network)

// toggled alternates a and b every 500 ns over [20 µs, 60 µs): a
// single change rarely finds a point whose refused option it admits,
// forty of each do.
func toggled(a, b tamperAct) []tamperStep {
	var steps []tamperStep
	for at := sim.Time(20_000); at < 60_000; at += 1_000 {
		steps = append(steps, tamperStep{at, a}, tamperStep{at + 500, b})
	}
	return steps
}

func setTamper(tm fabric.Tamper) tamperAct {
	return func(_ *testing.T, net *fabric.Network) { net.SetTamper(tm) }
}

// skewCredits adds delta to the credits of every inter-switch channel.
func skewCredits(delta int) tamperAct {
	return func(t *testing.T, net *fabric.Network) {
		for s := range net.Switches {
			for _, nb := range net.Topo.Neighbors(s) {
				if err := net.TamperCredits(s, nb, delta); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// runTampered drives a congested mixed-service workload on a 16-switch
// fabric under arbiter arb, firing steps mid-run, and returns the
// network and its heavy audit report.
func runTampered(t *testing.T, arb string, steps []tamperStep) (*fabric.Network, check.Report) {
	t.Helper()
	net := irregularNet(t, arb, 16, 1, 2)
	aud := check.Attach(net, check.Config{Heavy: true})
	for _, st := range steps {
		net.Engine.At(st.at, func() { st.act(t, net) })
	}
	runTraffic(t, net, traffic.Config{
		Pattern: traffic.Uniform{NumHosts: net.Topo.NumHosts()}, PacketSize: 256,
		AdaptiveFraction: 0.5, LoadBytesPerNsPerHost: 0.12, Seed: 3,
	}, 60_000, 120_000)
	return net, aud.Finalize()
}

// TestArbWakeExactUnderTamper holds the wake arbiter to the scan
// oracle while tamper models are installed and reset and mutation
// hooks fire mid-run under traffic. A tamper model, forged credits or
// a new split can admit what a parked point's probe refused without
// the event that would wake it, so the wake arbiter must re-probe every
// point (Network.wakeAll) and park on what the tampered probe itself
// refused. (The occupancy and table-slot hooks change nothing a
// buffered entry's probe reads; their cases check that the arbiters
// still agree.) Audit reports, dispatched events and fault counters
// must be identical, and the wake arbiter must have parked. Credits are
// leaked and restored rather than forged: credits beyond the physical
// buffer would overflow it under traffic.
func TestArbWakeExactUnderTamper(t *testing.T) {
	const mid = 30_000
	honest := setTamper(fabric.Tamper{})
	split := func(cEscape int) tamperAct {
		return func(_ *testing.T, net *fabric.Network) { net.TamperSplit(cEscape) }
	}
	reserve := fabric.DefaultConfig().Split.CEscape
	cases := []struct {
		name  string
		steps []tamperStep
	}{
		{"skip adaptive room check", toggled(setTamper(fabric.Tamper{SkipAdaptiveRoomCheck: true}), honest)},
		{"no escape fallback", toggled(setTamper(fabric.Tamper{NoEscapeFallback: true}), honest)},
		{"adaptive deterministic", toggled(setTamper(fabric.Tamper{AdaptiveDeterministic: true}), honest)},
		{"reset to zero model", []tamperStep{
			{0, setTamper(fabric.Tamper{SkipAdaptiveRoomCheck: true, NoEscapeFallback: true, AdaptiveDeterministic: true})},
			{mid, honest},
		}},
		{"leaked and restored credits", toggled(skewCredits(-3), skewCredits(+3))},
		{"corrupt occupancy", []tamperStep{{mid, func(t *testing.T, net *fabric.Network) {
			if err := net.TamperOccupancy(net.Topo.Neighbors(0)[0], 0, -2); err != nil {
				t.Error(err)
			}
		}}}},
		{"halved escape reserve", toggled(split(reserve/2), split(reserve))},
		{"swapped table slots", []tamperStep{{mid, func(_ *testing.T, net *fabric.Network) { net.TamperSwapTableSlots() }}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wake, wakeRep := runTampered(t, fabric.ArbWake, c.steps)
			scan, scanRep := runTampered(t, fabric.ArbScan, c.steps)
			if !wake.ArbWake() || wake.ArbParks() == 0 {
				t.Fatalf("wake network: ArbWake %v, %d parks; the wake arbiter did not run", wake.ArbWake(), wake.ArbParks())
			}
			if !reflect.DeepEqual(wakeRep, scanRep) {
				t.Errorf("audit reports differ:\nwake %+v\nscan %+v", wakeRep, scanRep)
			}
			if w, s := wake.Processed(), scan.Processed(); w != s {
				t.Errorf("dispatched events: wake %d, scan %d", w, s)
			}
			if w, s := wake.FaultTotals(), scan.FaultTotals(); w != s {
				t.Errorf("fault totals: wake %+v, scan %+v", w, s)
			}
		})
	}
}
