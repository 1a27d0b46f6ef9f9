package fabric

import (
	"math"
	"testing"

	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// tape is the Stream of a test that generates by hand: gen records
// each packet and queues it through Host.Generate, and the host reads
// the records back as the packets reach the head, as it replays a
// traffic generator's draws. A tape whose records are all read starts
// over, so a warm tape allocates nothing.
type tape struct {
	h    *Host
	recs []tapeRec
	next int
}

type tapeRec struct {
	at        sim.Time
	dst, size int
	adaptive  bool
}

// attachTape gives h a tape as its stream.
func attachTape(h *Host) *tape {
	tp := &tape{h: h}
	h.SetStream(tp)
	return tp
}

// gen generates one packet at the current time.
func (tp *tape) gen(dst, size int, adaptive bool) {
	tp.recs = append(tp.recs, tapeRec{tp.h.net.Engine.Now(), dst, size, adaptive})
	tp.h.Generate(dst, size, adaptive)
}

// Next implements Stream.
func (tp *tape) Next() (sim.Time, int, int, bool) {
	r := tp.recs[tp.next]
	tp.next++
	if tp.next == len(tp.recs) {
		tp.recs, tp.next = tp.recs[:0], 0
	}
	return r.at, r.dst, r.size, r.adaptive
}

// TestSourceQueueMixedOrder queues generated entries, injected packets
// and retries at one host while its link is down, then lets them go.
// The three kinds share one FIFO: they leave in the order they
// entered. A retry keeps its ID, SeqNo, Attempts and CreatedAt, and
// every other packet takes its flow's next SeqNo as it leaves, which
// gives the numbers taking one at entry would have given.
//
// Timeline (send timeout 1000 ns, backoff 500 ns): batch 1 enters at
// 0, expires at 1000 and re-enters at 1500; batch 2 enters at 200,
// expires at 1200 and re-enters at 1700; batch 3 enters at 1600,
// between the two re-entries; the link comes up at 1800.
func TestSourceQueueMixedOrder(t *testing.T) {
	cfg := DefaultConfig()
	const timeout, backoff = 1_000, 500
	cfg.Retry = RetryConfig{MaxRetries: 2, BackoffBase: backoff, BackoffMax: backoff, SendTimeout: timeout}
	net := hotpathNetCfg(t, cfg)
	h := net.Hosts[0]
	tp := attachTape(h)
	h.out.down = true

	var delivered []ib.Packet
	net.OnDelivered = func(p *ib.Packet) { delivered = append(delivered, *p) }
	droppedAs := map[uint64]ib.Packet{}
	net.OnDropped = func(p *ib.Packet, reason DropReason) {
		if reason != DropTimeout {
			t.Fatalf("%v dropped for %v", p, reason)
		}
		droppedAs[p.ID] = *p
	}
	// Every batch is (generated to 7, injected to 7), batch 1 also a
	// generated packet to 5.
	batch := func(to5 bool) {
		tp.gen(7, 32, false)
		h.Inject(net.NewPacket(0, 7, 32, false))
		if to5 {
			tp.gen(5, 32, false)
		}
	}
	batch(true)                                 // IDs 1, 2, 3
	net.Engine.At(200, func() { batch(false) }) // IDs 4, 5
	net.Engine.At(1_600, func() {
		if got := h.HeadID(); got != 1 {
			t.Errorf("head after batch 1's retries = pkt#%d, want pkt#1", got)
		}
		batch(false) // IDs 6, 7
	})
	net.Engine.At(1_800, func() {
		if got := h.QueueLen(); got != 7 {
			t.Errorf("queue length at link-up = %d, want 7", got)
		}
		h.out.down = false
		h.kick()
	})
	net.Engine.RunUntilIdle()

	type want struct {
		id       uint64
		seq      uint64
		attempts int32
		created  sim.Time
	}
	wants := []want{
		{1, 0, 1, 0}, {2, 1, 1, 0}, {3, 0, 1, 0}, // batch 1's retries
		{6, 4, 0, 1_600}, {7, 5, 0, 1_600}, // batch 3
		{4, 2, 1, 200}, {5, 3, 1, 200}, // batch 2's retries
	}
	if len(delivered) != len(wants) {
		t.Fatalf("%d packets delivered, want %d", len(delivered), len(wants))
	}
	for i, w := range wants {
		p := delivered[i]
		got := want{p.ID, p.SeqNo, p.Attempts, p.CreatedAt}
		if got != w {
			t.Errorf("delivery %d: (id, seq, attempts, created) = %v, want %v", i, got, w)
		}
		if w.attempts == 0 {
			continue
		}
		d, ok := droppedAs[p.ID]
		if !ok {
			t.Errorf("pkt#%d was never dropped", p.ID)
			continue
		}
		if d.SeqNo != p.SeqNo || d.CreatedAt != p.CreatedAt || d.Attempts != 0 {
			t.Errorf("pkt#%d dropped as (seq %d, created %d, attempts %d), delivered as (seq %d, created %d)",
				p.ID, d.SeqNo, d.CreatedAt, d.Attempts, p.SeqNo, p.CreatedAt)
		}
		if p.QueuedAt != d.QueuedAt+timeout+backoff {
			t.Errorf("pkt#%d re-queued at %d, want %d", p.ID, p.QueuedAt, d.QueuedAt+timeout+backoff)
		}
	}
}

// queuedHost returns a network whose host 0 holds one generated entry
// with no injection pass pending, its link up and idle, at time 0.
func queuedHost(t *testing.T, cfg Config) (*Network, *Host, *tape) {
	t.Helper()
	net := hotpathNetCfg(t, cfg)
	h := net.Hosts[0]
	tp := attachTape(h)
	h.out.down = true
	tp.gen(7, 32, false)
	net.Engine.Run(0) // the pass fails on the down link
	h.out.down = false
	if h.QueueLen() != 1 || h.injPending {
		t.Fatalf("setup: queue %d, pass pending %v", h.QueueLen(), h.injPending)
	}
	return net, h, tp
}

// TestGenerateSkipsOnlyFailingPasses checks when a generation that
// joins a non-empty queue leaves out the injection pass: only where
// that pass would fail at every point of the instant. It must never
// skip while a credit return is in flight (the credits may arrive
// before the pass would have run) or while the host link is down (a
// repair in the same instant may follow). A tamper model or mutation
// hook touches no host's link or credits, so it changes nothing here.
func TestGenerateSkipsOnlyFailingPasses(t *testing.T) {
	noCredits := func(net *Network, h *Host) { h.out.credits = 0 }
	cases := []struct {
		name  string
		setup func(net *Network, h *Host)
		skip  bool
	}{
		{"link free with credits", func(net *Network, h *Host) {}, false},
		{"no credits", noCredits, true},
		{"busy link", func(net *Network, h *Host) { h.out.busyUntil = 100 }, true},
		{"busy link, credit return in flight", func(net *Network, h *Host) {
			h.out.busyUntil = 100
			net.scheduleCreditReturn(ib.PropagationDelay, h.out, 1)
		}, true},
		{"no credits, credit return in flight", func(net *Network, h *Host) {
			noCredits(net, h)
			net.scheduleCreditReturn(ib.PropagationDelay, h.out, 1)
		}, false},
		{"no credits, link down", func(net *Network, h *Host) {
			noCredits(net, h)
			h.out.down = true
		}, false},
		{"no credits, tamper model", func(net *Network, h *Host) {
			noCredits(net, h)
			net.SetTamper(Tamper{NoEscapeFallback: true})
		}, true},
		{"no credits, mutation hook fired", func(net *Network, h *Host) {
			noCredits(net, h)
			if err := net.TamperCredits(0, 1, 0); err != nil {
				t.Fatal(err)
			}
		}, true},
	}
	for _, c := range cases {
		net, h, tp := queuedHost(t, DefaultConfig())
		c.setup(net, h)
		tp.gen(7, 32, false)
		if skipped := !h.injPending; skipped != c.skip {
			t.Errorf("%s: pass skipped %v, want %v", c.name, skipped, c.skip)
		}
		if !c.skip {
			continue
		}
		// A skipped pass would have failed: running one now moves
		// nothing.
		h.tryInject()
		if h.QueueLen() != 2 || h.Injected != 0 {
			t.Errorf("%s: a pass the generation skipped injected (queue %d, injected %d)", c.name, h.QueueLen(), h.Injected)
		}
	}

	// A send-timeout check due in this instant may drop the head, so
	// the pass is kept even without credits.
	cfg := DefaultConfig()
	cfg.Retry = RetryConfig{MaxRetries: 1, BackoffBase: 1, SendTimeout: 1_000}
	net := hotpathNetCfg(t, cfg)
	h := net.Hosts[0]
	tp := attachTape(h)
	skipped := false
	net.Engine.At(1_000, func() { // dispatches before the timeout check it shares the instant with
		h.out.down = false
		h.out.credits = 0
		tp.gen(7, 32, false)
		skipped = !h.injPending
	})
	h.out.down = true
	tp.gen(7, 32, false)
	net.Engine.Run(1_000)
	if skipped {
		t.Error("no credits, send timeout due: pass skipped, want kept")
	}
}

// TestGenerateZeroAllocsSteadyState holds the generator's path to the
// injection gate's bar: generating a packet, queueing its entry,
// replaying it from the host's stream at the head and running it
// through to delivery allocates only the amortized slab refill.
func TestGenerateZeroAllocsSteadyState(t *testing.T) {
	net := hotpathNet(t)
	h := net.Hosts[0]
	tp := attachTape(h)
	generate := func() {
		tp.gen(7, 32, true)
		net.Engine.RunUntilIdle()
	}
	for i := 0; i < 600; i++ { // warm pools and span a slab boundary
		generate()
	}
	if allocs := mallocsPerRun(2*pktSlabSize, generate); allocs > 2.5/pktSlabSize {
		t.Fatalf("steady-state generation allocates %v objects per packet, want at most the amortized slab refill (%v)", allocs, 2.5/pktSlabSize)
	}
}

// TestPacketRecycling: a generated packet goes back to the network's
// freelist once it is delivered or lost for good, and the next packet
// reuses it; a dropped packet whose retry is pending stays out of the
// freelist, and a packet built by NewPacket is never recycled. The
// hooks keep packet addresses only to compare them.
func TestPacketRecycling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Retry = RetryConfig{MaxRetries: 1, BackoffBase: 500, BackoffMax: 500, SendTimeout: 1_000}
	net := hotpathNetCfg(t, cfg)
	h := net.Hosts[0]
	tp := attachTape(h)
	var delivered, dropped []*ib.Packet
	var freeAfterDrop []int
	net.OnDelivered = func(p *ib.Packet) { delivered = append(delivered, p) }
	net.OnDropped = func(p *ib.Packet, _ DropReason) {
		dropped = append(dropped, p)
		net.Engine.Schedule(0, func() { freeAfterDrop = append(freeAfterDrop, len(net.pktFree)) })
	}

	tp.gen(7, 32, false)
	net.Engine.RunUntilIdle()
	tp.gen(7, 32, false)
	net.Engine.RunUntilIdle()
	if len(delivered) != 2 || delivered[0] != delivered[1] || net.PacketsCarved() != 1 {
		t.Fatalf("two generated packets in turn: %d delivered, same memory %v, %d carved; want 2, true, 1",
			len(delivered), len(delivered) == 2 && delivered[0] == delivered[1], net.PacketsCarved())
	}

	// NewPacket takes the recycled packet, and it stays the caller's.
	own := net.NewPacket(0, 7, 32, false)
	if own != delivered[0] || own.Pooled {
		t.Fatalf("NewPacket: reused %v, pooled %v; want true, false", own == delivered[0], own.Pooled)
	}
	h.Inject(own)
	net.Engine.RunUntilIdle()
	if len(net.pktFree) != 0 || own.DeliveredAt == 0 || own.Dst != 7 {
		t.Fatalf("injected packet after delivery: %d packets free, %v; want none free, its own fields", len(net.pktFree), own)
	}

	// A packet that times out twice at a dead host link: the first drop
	// schedules its retry, the second loses it for good.
	h.out.down = true
	tp.gen(7, 32, false)
	net.Engine.RunUntilIdle()
	if len(dropped) != 2 || dropped[0] != dropped[1] || net.FaultTotals().Lost != 1 {
		t.Fatalf("%d drops (same packet %v), %d lost; want 2, true, 1", len(dropped), len(dropped) == 2 && dropped[0] == dropped[1], net.FaultTotals().Lost)
	}
	if len(freeAfterDrop) != 2 || freeAfterDrop[0] != 0 || freeAfterDrop[1] != 1 || net.pktFree[0] != dropped[1] {
		t.Fatalf("freelist length after each drop = %v, want [0 1] holding the lost packet", freeAfterDrop)
	}
	if net.PacketsCarved() != 2 {
		t.Fatalf("%d packets carved, want 2", net.PacketsCarved())
	}
}

// TestFlowSeqPast32BitsPanics: a flow's SeqNo counter is 32 bits wide,
// so the packet after its 2^32-1st panics rather than wrapping to 0.
func TestFlowSeqPast32BitsPanics(t *testing.T) {
	net := hotpathNet(t)
	h := net.Hosts[0]
	tp := attachTape(h)
	var last uint64
	net.OnDelivered = func(p *ib.Packet) { last = p.SeqNo }
	h.nextSeq[7] = math.MaxUint32 - 1
	tp.gen(7, 32, false)
	net.Engine.RunUntilIdle()
	if last != math.MaxUint32-1 {
		t.Fatalf("last packet of the flow took seq %d, want 2^32-2", last)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("flow numbered a packet past 2^32-1")
		}
	}()
	tp.gen(7, 32, false)
	net.Engine.RunUntilIdle()
}
