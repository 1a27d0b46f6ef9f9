package fabric_test

import (
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
	"ibasim/internal/topology"
)

// TestSetLinkDownUpIdempotent: re-failing a dead link and re-repairing
// a healthy one are no-ops, and the down flag is symmetric.
func TestSetLinkDownUpIdempotent(t *testing.T) {
	net := irregularNet(t, 8, 4, 1, fabric.DefaultConfig(), 2, 1)
	l := net.Topo.Links[0]

	if net.LinkIsDown(l.A, l.B) || net.LinkIsDown(l.B, l.A) {
		t.Fatal("fresh link reported down")
	}
	for i := 0; i < 3; i++ { // repeated downs are idempotent
		if err := net.SetLinkDown(l.A, l.B); err != nil {
			t.Fatal(err)
		}
	}
	if !net.LinkIsDown(l.A, l.B) || !net.LinkIsDown(l.B, l.A) {
		t.Fatal("LinkIsDown not symmetric after SetLinkDown")
	}
	if got := net.DownLinks(); len(got) != 1 || got[0] != l {
		t.Fatalf("DownLinks = %v, want [%v]", got, l)
	}
	for i := 0; i < 3; i++ { // repeated ups are idempotent
		if err := net.SetLinkUp(l.A, l.B); err != nil {
			t.Fatal(err)
		}
	}
	if net.LinkIsDown(l.A, l.B) || net.LinkIsDown(l.B, l.A) {
		t.Fatal("link still down after SetLinkUp")
	}
	if err := net.SetLinkDown(l.A, 99); err == nil {
		t.Fatal("nonexistent link accepted")
	}
}

// TestSwitchDownDropsArrivalsAndConservesCredits: killing a switch
// mid-traffic drops in-flight arrivals as dead-port (counted, no
// panic) and every drop returns its credits upstream.
func TestSwitchDownDropsArrivalsAndConservesCredits(t *testing.T) {
	cfg := fabric.DefaultConfig()
	cfg.Retry = fabric.RetryConfig{MaxRetries: 1, BackoffBase: 200, BackoffMax: 200, SendTimeout: 3_000}
	net := lineNet(t, 2, cfg)

	// A stream of packets from switch 0's hosts to switch 1's hosts
	// keeps the inter-switch link busy when the switch dies.
	for i := 0; i < 10; i++ {
		src, dst := i%4, 4+i%4
		net.Hosts[src].Inject(net.NewPacket(src, dst, 32, true))
	}
	net.Engine.At(500, func() {
		if err := net.SetSwitchDown(1); err != nil {
			t.Error(err)
		}
	})
	net.Engine.RunUntilIdle()

	fs := net.FaultTotals()
	if fs.DroppedOnDeadPort == 0 {
		t.Fatalf("no dead-port drops despite in-flight traffic: %+v", fs)
	}
	if fs.Retries == 0 {
		t.Fatalf("dropped packets never retried: %+v", fs)
	}
	// Packets routed toward the dead switch park in switch 0; the
	// conservation identities must hold even mid-wedge.
	if err := net.CheckCreditConservation(); err != nil {
		t.Fatalf("credit conservation after drops: %v", err)
	}
	// Killing a dead switch again is an idempotent no-op.
	before := net.FaultTotals()
	if err := net.SetSwitchDown(1); err != nil {
		t.Fatal(err)
	}
	if net.FaultTotals() != before {
		t.Fatalf("repeated SetSwitchDown changed counters: %+v -> %+v", before, net.FaultTotals())
	}

	// Revival kicks the neighbors: every parked and retried packet
	// completes its journey.
	if err := net.SetSwitchUp(1); err != nil {
		t.Fatal(err)
	}
	if err := net.SetSwitchUp(1); err != nil { // idempotent
		t.Fatal(err)
	}
	if net.SwitchIsDown(1) {
		t.Fatal("switch still down after SetSwitchUp")
	}
	net.Engine.RunUntilIdle()
	if net.InFlight() != 0 {
		t.Fatalf("%d packets still in flight after revival", net.InFlight())
	}
	if err := net.CreditsIntact(); err != nil {
		t.Fatal(err)
	}
	if err := net.SetSwitchDown(99); err == nil {
		t.Fatal("nonexistent switch accepted")
	}
}

// TestSendTimeoutRetriesThenLoses: a host whose switch is dead times
// out its queue head, retries with backoff, and finally counts the
// packet lost — all without touching working code paths.
func TestSendTimeoutRetriesThenLoses(t *testing.T) {
	cfg := fabric.DefaultConfig()
	cfg.Retry = fabric.RetryConfig{MaxRetries: 2, BackoffBase: 100, BackoffMax: 400, SendTimeout: 1_000}
	net := lineNet(t, 2, cfg)
	if err := net.SetSwitchDown(0); err != nil {
		t.Fatal(err)
	}
	var drops []fabric.DropReason
	net.OnDropped = func(_ *ib.Packet, reason fabric.DropReason) { drops = append(drops, reason) }
	net.Hosts[0].Inject(net.NewPacket(0, 4, 32, true))
	net.Engine.RunUntilIdle()

	fs := net.FaultTotals()
	if fs.DroppedTimeout != 3 || fs.Retries != 2 || fs.Lost != 1 {
		t.Fatalf("timeout/retry accounting = %+v, want 3 timeouts, 2 retries, 1 lost", fs)
	}
	if len(drops) != 3 {
		t.Fatalf("OnDropped fired %d times, want 3", len(drops))
	}
	for _, r := range drops {
		if r != fabric.DropTimeout {
			t.Fatalf("drop reason %v, want %v", r, fabric.DropTimeout)
		}
	}
	if net.InFlight() != 0 {
		t.Fatalf("%d packets still queued", net.InFlight())
	}
}

// TestUnroutableLookupDropsInsteadOfPanic: a packet reaching a switch
// with no programmed route for its DLID is counted and discarded, not
// a crash.
func TestUnroutableLookupDropsInsteadOfPanic(t *testing.T) {
	topo, err := topology.Line(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ib.NewAddressPlan(topo.NumHosts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := fabric.NewNetwork(topo, plan, fabric.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// No subnet.Configure: every forwarding table is unprogrammed.
	net.Hosts[0].Inject(net.NewPacket(0, 4, 32, false))
	net.Engine.RunUntilIdle()
	if net.FaultTotals().DroppedUnroutable != 1 {
		t.Fatalf("unroutable drops = %d, want 1", net.FaultTotals().DroppedUnroutable)
	}
	if err := net.CheckCreditConservation(); err != nil {
		t.Fatal(err)
	}
}

// fixedStream is the stream of a host that generates packets of one
// shape to one destination: gen queues n of them at the current time
// through Host.Generate, and records that time for the host to replay.
type fixedStream struct {
	net       *fabric.Network
	h         *fabric.Host
	dst, size int
	adaptive  bool
	at        []sim.Time
}

// gen generates n packets now.
func (s *fixedStream) gen(n int) {
	for i := 0; i < n; i++ {
		s.at = append(s.at, s.net.Engine.Now())
		s.h.Generate(s.dst, s.size, s.adaptive)
	}
}

// Next implements fabric.Stream.
func (s *fixedStream) Next() (sim.Time, int, int, bool) {
	at := s.at[0]
	s.at = s.at[1:]
	return at, s.dst, s.size, s.adaptive
}

// TestSendTimeoutDrainsMultiChunkBacklogInOrder: a backlog of several
// source-queue chunks of generated packets (2,040 one-byte entries a
// chunk: one host's IDs are consecutive here, and a retry's entry is a
// one-byte marker) waits behind a dead switch. The send timeout drops
// the heads in FIFO order, each exactly one timeout after it was
// generated (a time the host replays from its stream), and retried
// packets re-enter at the tail, behind packets generated while they
// were backing off.
func TestSendTimeoutDrainsMultiChunkBacklogInOrder(t *testing.T) {
	const (
		timeout = 1_000
		backoff = 400
		nA      = 3*2040 + 7 // first batch, queued at t=0
		nB      = 2*2040 + 3 // second batch, queued at t=1200
		atB     = 1_200
	)
	cfg := fabric.DefaultConfig()
	cfg.Retry = fabric.RetryConfig{MaxRetries: 1, BackoffBase: backoff, BackoffMax: backoff, SendTimeout: timeout}
	net := lineNet(t, 2, cfg)
	if err := net.SetSwitchDown(0); err != nil {
		t.Fatal(err)
	}
	h := net.Hosts[0]
	type drop struct {
		id       uint64
		attempts int32
	}
	var drops []drop
	net.OnDropped = func(p *ib.Packet, reason fabric.DropReason) {
		if reason != fabric.DropTimeout {
			t.Fatalf("%v dropped for %v, want %v", p, reason, fabric.DropTimeout)
		}
		if now := net.Engine.Now(); now != p.QueuedAt+timeout {
			t.Fatalf("%v dropped at %d, want one timeout after it was queued (%d)", p, now, p.QueuedAt+timeout)
		}
		drops = append(drops, drop{p.ID, p.Attempts})
	}
	var created []uint64
	net.OnCreated = func(p *ib.Packet) { created = append(created, p.ID) }
	s := &fixedStream{net: net, h: h, dst: 4, size: 32, adaptive: true}
	h.SetStream(s)
	s.gen(nA)
	firstA := created[0]
	var firstB uint64
	net.Engine.At(atB, func() {
		s.gen(nB)
		firstB = created[nA]
	})
	// The retries of batch A re-enter at t = timeout + backoff; batch B
	// must still be at the head, with A queued behind it.
	net.Engine.At(timeout+backoff+1, func() {
		if got := h.HeadID(); got != firstB {
			t.Errorf("head after the retries = pkt#%d, want batch B's first pkt#%d", got, firstB)
		}
		if got := h.QueueLen(); got != nA+nB {
			t.Errorf("queue length after the retries = %d, want %d", got, nA+nB)
		}
	})
	net.Engine.RunUntilIdle()

	var want []drop
	for _, b := range []struct {
		first    uint64
		n        int
		attempts int32
	}{{firstA, nA, 0}, {firstB, nB, 0}, {firstA, nA, 1}, {firstB, nB, 1}} {
		for i := 0; i < b.n; i++ {
			want = append(want, drop{b.first + uint64(i), b.attempts})
		}
	}
	if len(drops) != len(want) {
		t.Fatalf("%d drops, want %d", len(drops), len(want))
	}
	for i := range want {
		if drops[i] != want[i] {
			t.Fatalf("drop %d = pkt#%d (attempt %d), want pkt#%d (attempt %d)",
				i, drops[i].id, drops[i].attempts, want[i].id, want[i].attempts)
		}
	}
	if fs := net.FaultTotals(); fs.Retries != nA+nB || fs.Lost != nA+nB {
		t.Fatalf("retries %d, lost %d; want %d each", fs.Retries, fs.Lost, nA+nB)
	}
	if net.InFlight() != 0 {
		t.Fatalf("%d packets still queued", net.InFlight())
	}
}
