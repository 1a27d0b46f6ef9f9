package fabric

// In-package tests for the wake-list arbiter runtime switch: wake mode
// must engage by default and actually park blocked service points, the
// ArbScan oracle must never park, tamper models must force the scan
// arbiter (stickily for the raw mutation hooks), and the two arbiters
// must hold identical micro-state — rr cursor, buffer contents,
// credits, link busy times — through arbitrary congested traffic.

import (
	"math/rand"
	"testing"

	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// runArbCongestion pushes a contended burst through the two-switch
// line: all four hosts on switch 0 send to host 7, so every head
// competes for the single inter-switch link and the losers block.
func runArbCongestion(net *Network) {
	sw := net.Switches[0]
	for src := 0; src < 4; src++ {
		pkt := net.NewPacket(src, 7, 64, true)
		sw.receive(net.HostPort(src), 0, pkt)
	}
	net.Engine.RunUntilIdle()
}

// TestArbDefaultEngages proves the wake arbiter is live out of the
// box: a default-config network reports ArbWake and congested traffic
// actually parks blocked service points on the wait lists.
func TestArbDefaultEngages(t *testing.T) {
	net := hotpathNet(t)
	if !net.ArbWake() {
		t.Fatal("default-config network does not use the wake arbiter")
	}
	runArbCongestion(net)
	if net.ArbParks() == 0 {
		t.Error("congested traffic on a wake-arbiter network parked no service points")
	}
	if got := net.InFlight(); got != 0 {
		t.Errorf("%d packets in flight after drain, want 0", got)
	}
}

// TestArbConfigScan pins the Config.Arb ArbScan reference: the scanning
// oracle never touches the wait lists, whatever the traffic.
func TestArbConfigScan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Arb = ArbScan
	net := hotpathNetCfg(t, cfg)
	if net.ArbWake() {
		t.Fatal("Arb=scan network reports the wake arbiter")
	}
	runArbCongestion(net)
	if p := net.ArbParks(); p != 0 {
		t.Errorf("scan-arbiter network recorded %d parks, want 0", p)
	}
}

// TestArbTamperForcesScan pins the mutation-suite interaction:
// installing any non-zero tamper model forces the scan arbiter (the
// tamper hooks mutate credits and occupancy without waking waiters),
// and restoring the zero Tamper re-arms wake mode.
func TestArbTamperForcesScan(t *testing.T) {
	net := hotpathNet(t)
	net.SetTamper(Tamper{SkipAdaptiveRoomCheck: true})
	if net.ArbWake() {
		t.Fatal("tampered network still runs the wake arbiter")
	}
	net.SetTamper(Tamper{})
	if !net.ArbWake() {
		t.Fatal("zero Tamper did not re-arm the wake arbiter")
	}
	runArbCongestion(net)
	if net.ArbParks() == 0 {
		t.Error("re-armed wake arbiter parked no service points")
	}
}

// TestArbMutationHookIsSticky: the raw state-mutation hooks
// (TamperCredits and friends) bypass SetTamper, so they latch the scan
// arbiter for the network's lifetime — a later tamper reset must not
// re-arm wake mode over silently skewed credits.
func TestArbMutationHookIsSticky(t *testing.T) {
	net := hotpathNet(t)
	if err := net.TamperCredits(0, 1, 0, -1); err != nil {
		t.Fatal(err)
	}
	if net.ArbWake() {
		t.Fatal("TamperCredits left the wake arbiter armed")
	}
	net.SetTamper(Tamper{})
	if net.ArbWake() {
		t.Fatal("tamper reset re-armed the wake arbiter after a raw credit mutation")
	}
	if err := net.TamperCredits(0, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	runArbCongestion(net)
	if p := net.ArbParks(); p != 0 {
		t.Errorf("latched scan arbiter recorded %d parks, want 0", p)
	}
}

// TestArbEmptyFastPathRRParity pins the occupancy==0 short-circuit:
// on an idle switch both arbiters' only observable effect is the
// round-robin advance, and their cursors stay in lockstep.
func TestArbEmptyFastPathRRParity(t *testing.T) {
	wakeNet := hotpathNet(t)
	cfg := DefaultConfig()
	cfg.Arb = ArbScan
	scanNet := hotpathNetCfg(t, cfg)
	wa, sc := wakeNet.Switches[0], scanNet.Switches[0]
	n := len(wa.points)
	for k := 1; k <= 2*n+3; k++ {
		wa.arbitrate()
		sc.arbitrate()
		if wa.rr != sc.rr {
			t.Fatalf("after %d empty passes rr diverged: wake %d, scan %d", k, wa.rr, sc.rr)
		}
		if want := k % n; wa.rr != want {
			t.Fatalf("after %d empty passes rr=%d, want %d", k, wa.rr, want)
		}
	}
	if wakeNet.ArbParks() != 0 {
		t.Error("empty-switch fast path touched the wait lists")
	}
}

// requireArbStateEqual compares the complete arbitration-visible state
// of two networks: per-switch rr cursor and occupancy, every buffer's
// entry sequence, and every output port's credits and busy horizon.
func requireArbStateEqual(t *testing.T, wake, scan *Network, tag string) {
	t.Helper()
	for s := range wake.Switches {
		wa, sc := wake.Switches[s], scan.Switches[s]
		if wa.rr != sc.rr {
			t.Fatalf("%s: switch %d rr diverged: wake %d, scan %d", tag, s, wa.rr, sc.rr)
		}
		if wa.occupancy != sc.occupancy {
			t.Fatalf("%s: switch %d occupancy diverged: wake %d, scan %d", tag, s, wa.occupancy, sc.occupancy)
		}
		for j := range wa.bufs {
			wb, sb := wa.bufs[j], sc.bufs[j]
			if len(wb.ids) != len(sb.ids) {
				t.Fatalf("%s: switch %d point %d holds %d entries under wake, %d under scan", tag, s, j, len(wb.ids), len(sb.ids))
			}
			for k := range wb.ids {
				if wb.ids[k] != sb.ids[k] {
					t.Fatalf("%s: switch %d point %d entry %d diverged: wake id %d, scan id %d", tag, s, j, k, wb.ids[k], sb.ids[k])
				}
			}
		}
		for p := range wa.out {
			wo, so := wa.out[p], sc.out[p]
			if wo == nil {
				continue
			}
			if wo.busyUntil != so.busyUntil {
				t.Fatalf("%s: switch %d port %d busyUntil diverged: wake %d, scan %d", tag, s, p, wo.busyUntil, so.busyUntil)
			}
			for vl := range wo.credits {
				if wo.credits[vl] != so.credits[vl] {
					t.Fatalf("%s: switch %d port %d vl %d credits diverged: wake %d, scan %d", tag, s, p, vl, wo.credits[vl], so.credits[vl])
				}
			}
		}
	}
}

// TestArbLockstepParity is the round-robin parity property test: a
// seeded random admission schedule — bursty enough to mix served and
// failed probes in single arbitrate passes — is scheduled identically
// on a wake-arbiter and a scan-arbiter network, both engines step
// event by event in lockstep, and the full arbitration state must
// match at every checkpoint. Any missed wake, spurious serve or rr
// drift diverges the state within a few events of the fault.
func TestArbLockstepParity(t *testing.T) {
	wakeNet := hotpathNet(t)
	cfg := DefaultConfig()
	cfg.Arb = ArbScan
	scanNet := hotpathNetCfg(t, cfg)
	if !wakeNet.ArbWake() || scanNet.ArbWake() {
		t.Fatal("arbiter modes not as configured")
	}

	rng := rand.New(rand.NewSource(42))
	const bursts = 40
	at := int64(0)
	for i := 0; i < bursts; i++ {
		at += int64(rng.Intn(4000))
		burst := 1 + rng.Intn(6)
		for k := 0; k < burst; k++ {
			src := rng.Intn(8)
			dst := rng.Intn(8)
			if dst == src {
				dst = (dst + 1) % 8
			}
			size := 32 + rng.Intn(192)
			adaptive := rng.Intn(4) > 0
			inject := func(net *Network) func() {
				return func() { net.Hosts[src].Inject(net.NewPacket(src, dst, size, adaptive)) }
			}
			wakeNet.Engine.At(sim.Time(at), inject(wakeNet))
			scanNet.Engine.At(sim.Time(at), inject(scanNet))
		}
	}

	steps := 0
	for {
		wp := wakeNet.Engine.Step()
		sp := scanNet.Engine.Step()
		if wp != sp {
			t.Fatalf("engines diverged after %d steps: wake pending=%v, scan pending=%v", steps, wp, sp)
		}
		if !wp {
			break
		}
		steps++
		if steps%50 == 0 {
			requireArbStateEqual(t, wakeNet, scanNet, "mid-run")
		}
	}
	requireArbStateEqual(t, wakeNet, scanNet, "drained")
	if wakeNet.InFlight() != 0 || scanNet.InFlight() != 0 {
		t.Fatalf("packets still in flight after drain: wake %d, scan %d", wakeNet.InFlight(), scanNet.InFlight())
	}
	if wakeNet.ArbParks() == 0 {
		t.Error("parity traffic parked no service points; the test exercised nothing")
	}
	if scanNet.ArbParks() != 0 {
		t.Error("scan-arbiter network touched the wait lists")
	}
}

// TestSwitchHopZeroAllocsScanArb holds the scanning oracle to the
// zero-alloc bar: it is the differential baseline for every arbiter
// benchmark and must stay comparable.
func TestSwitchHopZeroAllocsScanArb(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Arb = ArbScan
	net := hotpathNetCfg(t, cfg)
	sw := net.Switches[0]
	pkt := net.NewPacket(0, 7, 32, true)
	hop := func() {
		sw.receive(0, 0, pkt)
		net.Engine.RunUntilIdle()
	}
	for i := 0; i < 100; i++ {
		hop()
	}
	if allocs := testing.AllocsPerRun(200, hop); allocs != 0 {
		t.Fatalf("scan-arbiter steady-state forwarding allocates %v objects per traversal, want 0", allocs)
	}
}

// TestArbWakeZeroAllocsCongested is the wake-arbiter alloc gate on the
// path that actually exercises the wait lists: a contended burst that
// parks and wakes service points every traversal. All wait-list
// storage is preallocated at wiring time, so steady state must not
// allocate.
func TestArbWakeZeroAllocsCongested(t *testing.T) {
	net := hotpathNet(t)
	sw := net.Switches[0]
	pkts := make([]*ib.Packet, 4)
	for i := range pkts {
		pkts[i] = net.NewPacket(i, 7, 64, true)
	}
	burst := func() {
		for i, pkt := range pkts {
			sw.receive(net.HostPort(i), 0, pkt)
		}
		net.Engine.RunUntilIdle()
	}
	for i := 0; i < 100; i++ {
		burst()
	}
	before := net.ArbParks()
	if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
		t.Fatalf("congested wake-arbiter steady state allocates %v objects per burst, want 0", allocs)
	}
	if net.ArbParks() == before {
		t.Error("congested bursts parked no service points; the gate exercised nothing")
	}
}

// BenchmarkSwitchHopScanArb measures the scanning arbiter on the
// BenchmarkSwitchHop traversal; the delta against BenchmarkSwitchHop
// is what the wake lists buy on an uncongested hop.
func BenchmarkSwitchHopScanArb(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Arb = ArbScan
	net := hotpathNetCfg(b, cfg)
	sw := net.Switches[0]
	pkt := net.NewPacket(0, 7, 32, true)
	hop := func() {
		sw.receive(0, 0, pkt)
		net.Engine.RunUntilIdle()
	}
	for i := 0; i < 100; i++ {
		hop()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop()
	}
}

// BenchmarkArbCongested measures a contended 4-packet burst — every
// head fighting for one inter-switch link — under each arbiter. This
// is the shape the wake lists exist for: the scan re-probes every
// blocked head on every kick, the wake arbiter probes each head once
// per condition change.
func BenchmarkArbCongested(b *testing.B) {
	for _, mode := range []string{ArbWake, ArbScan} {
		b.Run(mode, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Arb = mode
			net := hotpathNetCfg(b, cfg)
			sw := net.Switches[0]
			pkts := make([]*ib.Packet, 4)
			for i := range pkts {
				pkts[i] = net.NewPacket(i, 7, 64, true)
			}
			burst := func() {
				for i, pkt := range pkts {
					sw.receive(net.HostPort(i), 0, pkt)
				}
				net.Engine.RunUntilIdle()
			}
			for i := 0; i < 100; i++ {
				burst()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				burst()
			}
		})
	}
}
