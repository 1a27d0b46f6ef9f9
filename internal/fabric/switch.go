package fabric

import (
	"fmt"

	"ibasim/internal/core"
	"ibasim/internal/ib"
	"ibasim/internal/prof"
	"ibasim/internal/sim"
)

// Switch is one IBA switch. Host-facing ports are numbered
// 0..HostsPerSwitch-1; inter-switch ports follow in neighbour order.
// Packets are routed on (head) arrival by a forwarding-table access,
// become servable RoutingDelay later, and leave through a crossbar
// allocation pass (arbitrate) that honours the credit rules of §4.4.
type Switch struct {
	net *Network
	id  int

	// enhanced marks a switch with the paper's extensions; stock
	// switches route by exact-DLID linear lookup and keep a single
	// queue per buffer (§4.2 allows mixing both kinds in one subnet).
	enhanced bool

	// dead marks a whole-switch failure: arriving packets are dropped
	// and every port stays silent until SetSwitchUp.
	dead bool

	// escapeOnly restricts forwarding to the escape (up*/down*) option
	// while the switch's table is stale during a staged
	// reconfiguration — adaptive moves computed against the old
	// topology are not trusted until the SM reprograms this switch.
	escapeOnly bool

	table *core.AdaptiveTable

	in  []*inPort  // indexed by port; nil when the port is unwired
	out []*outPort // indexed by port; nil when the port is unwired

	// points caches the service points: the wired input ports, each
	// with one buffer. The topology is static after wiring, so the
	// slice is built once (finishWiring) instead of on every allocation
	// pass. bufs is the parallel buffer pointer for each point: the
	// allocation scan touches only it on empty points, one load instead
	// of the in[port].buf chain.
	points []ib.PortID
	bufs   []*vlBuffer

	rr         int // round-robin start for the allocation scan
	arbPending bool

	// occupancy counts packets buffered across every input buffer. An
	// allocation pass over an empty switch — the common case right
	// after the last buffered packet departed — short-circuits on it
	// instead of scanning every service point.
	occupancy int

	// arbFn is the switch's recurring delay-0 event closure, bound once
	// at wiring: evaluating a fresh func literal per kick would allocate
	// on every hop.
	arbFn func()

	// Wake-arbiter state (see wake.go). pending is the set of service
	// points with an unconsumed wake signal; linkWaiters[port] and
	// creditWaiters[port] hold points blocked on that output port's
	// link or credits; waitPorts lists (dedup'd via portListed) the
	// ports with link waiters, swept at arbitrate entry; timeParked/
	// parkAt/parkedMask hold points whose head is not servable before a
	// known readyAt; pointIdx maps an input port to its point index.
	// blocked holds the waits the current visit's probes recorded
	// (recording is set while a wake-arbiter pass probes). parks
	// counts wait-list registrations (Network.ArbParks). All carved
	// from network-level arenas (Network.initWakeState) once wiring is
	// final; maintained and read only under the wake arbiter.
	pending       pointMask
	linkWaiters   []pointMask
	creditWaiters []pointMask
	waitPorts     []ib.PortID
	portListed    []bool
	timeParked    []int32
	parkAt        []sim.Time
	parkedMask    pointMask
	pointIdx      []int32
	blocked       []wait
	recording     bool
	parks         uint64
}

// ID returns the switch's topology ID.
func (sw *Switch) ID() int { return sw.id }

// Enhanced reports whether this switch carries the paper's adaptive
// extensions (§4.2 mixed subnets may contain both kinds).
func (sw *Switch) Enhanced() bool { return sw.enhanced }

// Table exposes the forwarding table for the subnet manager.
func (sw *Switch) Table() *core.AdaptiveTable { return sw.table }

// EscapeOnly reports whether the switch is in the staged-reconfig
// transient where only escape forwarding is trusted.
func (sw *Switch) EscapeOnly() bool { return sw.escapeOnly }

// SetEscapeOnly flips the stale-table transient mode. The subnet
// manager sets it when a staged reconfiguration sweep starts and
// clears it as each switch is reprogrammed.
func (sw *Switch) SetEscapeOnly(v bool) {
	sw.escapeOnly = v
	if !v {
		// Leaving the transient restores the adaptive options, which
		// no wait list tracked while they were suppressed.
		sw.wakeAllPoints()
		sw.kick()
	}
}

// TxPackets sums packets transmitted through all output ports — a
// per-switch progress clock for the forward-progress watchdog.
func (sw *Switch) TxPackets() uint64 {
	var n uint64
	for _, o := range sw.out {
		if o != nil {
			n += o.txPackets
		}
	}
	return n
}

// ScanBuffers calls fn for every wired input buffer with its current
// depth and head packet ID (0 when empty), in port order. The
// forward-progress watchdog samples these to detect service points
// whose head packet stopped moving.
func (sw *Switch) ScanBuffers(fn func(port ib.PortID, depth int, headID uint64)) {
	slab := &sw.net.slab
	for p, in := range sw.in {
		if in == nil {
			continue
		}
		var head uint64
		if id := in.buf.head(); id >= 0 {
			head = slab.pkt[id].ID
		}
		fn(ib.PortID(p), in.buf.len(), head)
	}
}

// kick schedules an allocation pass at the current time, coalescing
// multiple triggers within one event timestamp.
func (sw *Switch) kick() {
	if sw.arbPending {
		return
	}
	sw.arbPending = true
	sw.net.Engine.Schedule(0, sw.arbFn)
}

// finishWiring precomputes the per-switch hot-path state once the
// port wiring is final: the service-point scan order, the recurring
// delay-0 event closure, and each input buffer's pointer to the
// network's entry slab.
func (sw *Switch) finishWiring() {
	sw.points = sw.buildServicePoints()
	sw.arbFn = func() {
		sw.arbPending = false
		if prof.HotPhasesEnabled() {
			prof.Phase(prof.PhaseArbitrate, sw.arbitrate)
			return
		}
		sw.arbitrate()
	}
	for _, buf := range sw.bufs {
		buf.slab = &sw.net.slab
	}
}

// receive is the head arrival of a packet on an input port. The
// forwarding table is accessed immediately ("as soon as a packet
// arrives at the switch, before reaching the head of the input
// buffer", §4.3); the packet becomes servable after RoutingDelay.
func (sw *Switch) receive(port ib.PortID, pkt *ib.Packet) {
	if sw.dead {
		// The switch failed while the packet was on the wire: it is
		// discarded at the dead input.
		sw.dropArrival(port, pkt, DropDeadPort)
		return
	}
	now := sw.net.Engine.Now()
	slab := &sw.net.slab
	id := slab.alloc()
	slab.pkt[id] = pkt
	slab.readyAt[id] = now + ib.RoutingDelay
	slab.credits[id] = int32(pkt.Credits())
	if pkt.Adaptive {
		slab.flags[id] = entryPktAdaptive
	}
	if !sw.route(id) {
		sw.dropArrival(port, pkt, DropUnroutable)
		slab.release(id)
		return
	}
	sw.in[port].buf.push(id)
	sw.occupancy++
	if sw.net.wake {
		sw.wakeArrival(port)
	}
	sw.net.scheduleSwitchKick(ib.RoutingDelay, sw)
}

// route is the forwarding-table access for entry id, the one table read
// of both an arrival and Reroute: it stores the entry's routing options
// and, under immediate selection, fixes its output. It reports false
// when the table has no port for the DLID (a mid-reconfiguration
// transient); the caller drops the packet.
func (sw *Switch) route(id int32) bool {
	slab := &sw.net.slab
	dlid := slab.pkt[id].DLID
	if !sw.enhanced {
		// Plain IBA switch: a linear lookup of the exact DLID yields
		// the single routing option.
		slab.escape[id] = sw.table.Get(dlid)
		return slab.escape[id] != ib.InvalidPort
	}
	escape, adaptive, err := sw.table.Lookup(dlid)
	if err != nil {
		return false
	}
	if sw.net.tamper.AdaptiveDeterministic && len(adaptive) == 0 && sw.table.LMC() > 0 {
		// Mutation model: the service-mode bit is ignored, so a
		// deterministic DLID fetches its block's adaptive options
		// too (DLID|1 stays inside the 2^LMC-aligned block).
		if esc2, ad2, err2 := sw.table.Lookup(dlid | 1); err2 == nil {
			escape, adaptive = esc2, ad2
		}
	}
	slab.escape[id], slab.adaptive[id] = escape, adaptive
	if !sw.net.Cfg.Selection.AtArbitration {
		sw.selectImmediate(id)
	}
	return true
}

// dropArrival discards a packet that reached input port port but is
// not buffered — the switch is dead, or its table has no port for the
// DLID — and returns the buffer space the packet took upstream, so
// credit conservation holds. dropBuffered shares it.
func (sw *Switch) dropArrival(port ib.PortID, pkt *ib.Packet, reason DropReason) {
	sw.net.scheduleCreditReturn(ib.PropagationDelay, sw.in[port].upstream, pkt.Credits())
	sw.net.dropPacket(pkt, reason)
}

// selectImmediate fixes the output port right after the table access
// (§4.3 immediate selection). Status-aware immediate selection uses
// the credit/link status at this moment; static selection picks
// uniformly among all returned options.
func (sw *Switch) selectImmediate(id int32) {
	slab := &sw.net.slab
	adaptive := slab.adaptive[id]
	slab.chosen[id] = slab.escape[id]
	slab.flags[id] &^= entryChosenAdaptive
	if slab.flags[id]&entryPktAdaptive == 0 || len(adaptive) == 0 || sw.escapeOnly {
		return
	}
	if sw.net.Cfg.Selection.StatusAware {
		if p, ok := sw.pickAdaptive(id, sw.net.Engine.Now()); ok {
			slab.chosen[id] = p
			slab.flags[id] |= entryChosenAdaptive
		}
		return
	}
	// Static: uniform over adaptive options plus the escape option.
	if k := sw.net.rng.Intn(len(adaptive) + 1); k < len(adaptive) {
		slab.chosen[id] = adaptive[k]
		slab.flags[id] |= entryChosenAdaptive
	}
}

// pickAdaptive makes the §4.3 choice among an entry's adaptive
// options, considering only those usable now. Status-aware selection
// takes the option with the most room (ties to the first in table
// order, matching the lowest-address option) and draws nothing; static
// selection draws one Intn over the usable count, and none when no
// option is usable, so a failed probe leaves the RNG untouched.
func (sw *Switch) pickAdaptive(id int32, now sim.Time) (ib.PortID, bool) {
	slab := &sw.net.slab
	credits := int(slab.credits[id])
	adaptive := slab.adaptive[id]
	if sw.net.Cfg.Selection.StatusAware {
		best, bestRoom := ib.InvalidPort, -1
		for _, p := range adaptive {
			if room, ok := sw.usable(p, credits, true, now); ok && room > bestRoom {
				best, bestRoom = p, room
			}
		}
		return best, best != ib.InvalidPort
	}
	n := 0
	for _, p := range adaptive {
		if _, ok := sw.usable(p, credits, true, now); ok {
			n++
		}
	}
	if n == 0 {
		return ib.InvalidPort, false
	}
	k := sw.net.rng.Intn(n)
	for _, p := range adaptive {
		if _, ok := sw.usable(p, credits, true, now); ok {
			if k == 0 {
				return p, true
			}
			k--
		}
	}
	return ib.InvalidPort, false
}

// usable is the §4.4 admission check for sending a packet of credits
// through port now. The port must be wired and its link free. An
// adaptive hop toward a switch needs the whole packet to fit in the
// adaptive region of the next buffer, C_XYA = max(0, C_XY − C_0); any
// other hop, delivery to a CA included (the CA drains at line rate and
// has no queue split), needs room in the whole buffer. room is the
// status a status-aware selector maximizes: C_XYA for the adaptive hop
// toward a switch, C_XY otherwise. The tamper flag swaps in the
// (wrong) total-room condition for the mutation suite. A wired option
// it refuses is recorded with its first-failing condition, link before
// credits (see refused).
func (sw *Switch) usable(port ib.PortID, credits int, asAdaptive bool, now sim.Time) (room int, ok bool) {
	o := sw.out[port]
	if o == nil {
		return 0, false
	}
	if !o.free(now) {
		sw.refused(port, true)
		return 0, false
	}
	split := sw.net.Cfg.Split
	room, ok = o.credits, split.CanUseEscape(o.credits, credits)
	if asAdaptive && o.peerHost == nil {
		room = split.Adaptive(o.credits)
		if !sw.net.tamper.SkipAdaptiveRoomCheck {
			ok = split.CanUseAdaptive(o.credits, credits)
		}
	}
	if !ok {
		sw.refused(port, false)
	}
	return room, ok
}

// arbitrate is the crossbar allocation pass, dispatching to the
// configured arbiter: the wake-list drain (default) or the full
// round-robin scan (ArbScan, the differential oracle). Both produce
// byte-identical results; see wake.go for the equivalence argument.
func (sw *Switch) arbitrate() {
	if sw.net.wake {
		sw.arbitrateWake()
		return
	}
	sw.arbitrateScan()
}

// arbitrateScan is the scanning crossbar allocation pass: probe
// service points in round-robin order and start every transmission
// whose credit and link conditions hold, repeating until a full scan
// makes no progress.
func (sw *Switch) arbitrateScan() {
	points := sw.points
	n := len(points)
	if n == 0 {
		return
	}
	if sw.occupancy == 0 {
		// Every buffer is empty: a full scan would make no progress and
		// its only side effect is the round-robin advance. This is the
		// common state right after a switch's last buffered packet
		// departs (the trailing ser-kick fires into an empty switch).
		sw.rr++
		if sw.rr == n {
			sw.rr = 0
		}
		return
	}
	now := sw.net.Engine.Now()
	for progress := true; progress && sw.occupancy > 0; {
		// The occupancy guard cuts the scan short the moment the last
		// buffered packet departs: the remaining points are all empty,
		// so skipping them serves nothing and reads nothing — the pass
		// is observationally identical, including the trailing
		// round-robin advance.
		progress = false
		for i := 0; i < n; i++ {
			j := sw.rr + i
			if j >= n {
				j -= n
			}
			if len(sw.bufs[j].ids) == 0 {
				continue
			}
			if sw.visit(j, now) {
				progress = true
				if sw.occupancy == 0 {
					break
				}
			}
		}
	}
	sw.rr++
	if sw.rr == n {
		sw.rr = 0
	}
}

// visit probes both crossbar connections of the non-empty service
// point j — the buffer head, then the escape-service entry — and
// starts every transmission whose §4.4 conditions hold, reporting
// whether any packet left. Under the wake arbiter the probes record
// what refused them, and a visit that serves nothing parks the point
// on those records (see park); a visit that served throws them away
// and keeps the point pending, so the next pass re-probes it, exactly
// like the scan.
func (sw *Switch) visit(j int, now sim.Time) bool {
	buf, port := sw.bufs[j], sw.points[j]
	slab := buf.slab
	served := false
	var headAt, escAt sim.Time // readyAt of an entry still in its routing delay
	if id := buf.head(); slab.readyAt[id] > now {
		headAt = slab.readyAt[id]
	} else if out, asAdaptive, ok := sw.chooseOutput(id, now); ok {
		sw.startTx(buf, 0, port, out, asAdaptive)
		served = true
	}
	// Escape-queue connection, served independently (§4.4); the
	// in-order pointer may redirect it to the first deterministic
	// packet still in the adaptive region (see escapeService).
	if idx, id := buf.escapeService(); idx > 0 {
		if slab.readyAt[id] > now {
			escAt = slab.readyAt[id]
		} else if out, asAdaptive, ok := sw.chooseOutput(id, now); ok {
			sw.startTx(buf, idx, port, out, asAdaptive)
			served = true
		}
	}
	if !served && sw.recording {
		sw.park(j, headAt, escAt)
	}
	sw.blocked = sw.blocked[:0]
	return served
}

// chooseOutput picks the output port for a servable entry under the
// configured selection policy, returning ok=false when nothing can
// fire now.
func (sw *Switch) chooseOutput(id int32, now sim.Time) (out ib.PortID, asAdaptive bool, ok bool) {
	slab := &sw.net.slab
	credits := int(slab.credits[id])
	if chosen := slab.chosen[id]; chosen != ib.InvalidPort {
		// Immediate selection: the decision is fixed; wait until that
		// specific option can fire.
		chosenAdaptive := slab.flags[id]&entryChosenAdaptive != 0
		if _, ok := sw.usable(chosen, credits, chosenAdaptive, now); ok {
			return chosen, chosenAdaptive, true
		}
		return 0, false, false
	}
	// Arbitration-time selection: adaptive options first (preference
	// for minimal paths, §3), escape as fallback. The staged-reconfig
	// transient (escapeOnly) suppresses adaptive moves computed from a
	// stale table.
	adaptivePkt := slab.flags[id]&entryPktAdaptive != 0 || sw.net.tamper.AdaptiveDeterministic
	if adaptivePkt && len(slab.adaptive[id]) > 0 && sw.enhanced && !sw.escapeOnly {
		if p, ok := sw.pickAdaptive(id, now); ok {
			return p, true, true
		}
		if sw.net.tamper.NoEscapeFallback {
			// Mutation model: the §4.4 escape fallback is dropped —
			// a blocked adaptive packet just waits for adaptive room.
			return 0, false, false
		}
	}
	esc := slab.escape[id]
	if _, ok := sw.usable(esc, credits, false, now); ok {
		return esc, false, true
	}
	return 0, false, false
}

// startTx dequeues the entry at idx and begins its transmission on the
// output port (see transmit); when hot-phase profiling is active the
// work is wrapped in the depart pprof label.
func (sw *Switch) startTx(buf *vlBuffer, idx int, port, out ib.PortID, asAdaptive bool) {
	if prof.HotPhasesEnabled() {
		prof.Phase(prof.PhaseDepart, func() { sw.transmit(buf, idx, port, out, asAdaptive) })
		return
	}
	sw.transmit(buf, idx, port, out, asAdaptive)
}

// transmit dequeues the entry at idx and begins its transmission on
// the output port: credits are reserved for the whole packet (VCT),
// the link is held for the serialization time, the credit update for
// this switch's own input buffer travels back after the tail leaves,
// and the head arrives at the peer after the propagation delay.
func (sw *Switch) transmit(buf *vlBuffer, idx int, port, out ib.PortID, asAdaptive bool) {
	now := sw.net.Engine.Now()
	slab := &sw.net.slab
	id := buf.removeAt(idx)
	sw.occupancy--
	pkt := slab.pkt[id]
	o := sw.out[out]
	ser := ib.SerializationTime(int(pkt.Size))
	credits := int(slab.credits[id])

	o.credits -= credits
	if o.credits < 0 {
		panic(fmt.Sprintf("fabric: switch %d port %d negative credits", sw.id, out))
	}
	o.busyUntil = now + ser
	o.busyAccum += ser
	o.txPackets++
	pkt.Hops++
	if sw.net.OnHop != nil {
		sw.net.OnHop(pkt, sw.id, out, asAdaptive)
	}

	// Credit update to our upstream once the tail has left this
	// buffer (ser) and flown back (prop).
	sw.net.scheduleCreditReturn(ser+ib.PropagationDelay, sw.in[port].upstream, credits)

	if o.peerHost != nil {
		sw.net.scheduleDeliver(ser+ib.PropagationDelay, o.peerHost, pkt)
		// The CA drains at line rate: its buffer frees as the tail
		// arrives, and the credit update flies back one propagation
		// delay later.
		sw.net.scheduleCreditReturn(ser+2*ib.PropagationDelay, o, credits)
	} else {
		sw.net.scheduleReceive(ib.PropagationDelay, o.peerSwitch, o.peerPort, pkt)
	}
	// The link frees at ser; look for more work then.
	sw.net.scheduleSwitchKick(ser, sw)
	// The entry's journey through this switch is over; recycle it.
	slab.release(id)
}

// buildServicePoints enumerates the wired input ports and fills the
// parallel sw.bufs; the result is cached in sw.points at wiring time.
func (sw *Switch) buildServicePoints() []ib.PortID {
	np := 0
	for _, in := range sw.in {
		if in != nil {
			np++
		}
	}
	pts := make([]ib.PortID, 0, np)
	sw.bufs = make([]*vlBuffer, 0, np)
	for p, in := range sw.in {
		if in != nil {
			pts = append(pts, ib.PortID(p))
			sw.bufs = append(sw.bufs, in.buf)
		}
	}
	return pts
}

// queuedPackets counts packets buffered in the switch (test hook). It
// recounts from the buffers rather than trusting sw.occupancy, so the
// occupancy-consistency test can cross-check the counter.
func (sw *Switch) queuedPackets() int {
	n := 0
	for _, in := range sw.in {
		if in != nil {
			n += in.buf.len()
		}
	}
	return n
}
