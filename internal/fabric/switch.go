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
	// switches route by exact-DLID linear lookup and keep single
	// queues per VL (§4.2 allows mixing both kinds in one subnet).
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
	sl2vl *ib.SLtoVLTable

	in  []*inPort  // indexed by port; nil when the port is unwired
	out []*outPort // indexed by port; nil when the port is unwired

	// points caches the wired (port, VL) service points. The topology
	// is static after wiring, so the slice is built once (finishWiring)
	// instead of on every allocation pass. bufs is the parallel buffer
	// pointer for each point: the allocation scan touches only it on
	// empty points, one load instead of the in[port].vls[vl] chain.
	points []servicePoint
	bufs   []*vlBuffer

	rr         int // round-robin start for the allocation scan
	arbPending bool

	// occupancy counts packets buffered across every (port, VL) input
	// buffer. An allocation pass over an empty switch — the common case
	// right after the last buffered packet departed — short-circuits on
	// it instead of scanning every service point.
	occupancy int

	// arbFn is the switch's recurring delay-0 event closure, bound once
	// at wiring: evaluating a fresh func literal per kick would allocate
	// on every hop.
	arbFn func()

	// vlOf flattens the SL-to-VL table into one [out*MaxVLs + sl]
	// lookup. The table is programmed at construction and never
	// reprogrammed, so finishWiring snapshots it and the per-hop outVL
	// call skips the table's range-checked error path.
	vlOf []int8

	// candScratch is reused across adaptiveCandidates calls. The slice
	// is consumed synchronously by the selector before the next call,
	// so one scratch buffer per switch suffices.
	candScratch []core.Candidate

	// Wake-arbiter state (see wake.go). pending is the set of service
	// points with an unconsumed wake signal; linkWaiters[port] and
	// creditWaiters[port*NumVLs+vl] hold points blocked on that
	// condition; waitPorts lists (dedup'd via portListed) the ports
	// with link waiters, swept at arbitrate entry; timeParked/parkAt/
	// parkedMask hold points whose head is not servable before a known
	// readyAt; pointIdx maps (port*NumVLs+vl) to the point index.
	// parks counts wait-list registrations (Network.ArbParks). All
	// carved from network-level arenas (Network.initWakeState) once
	// wiring is final; maintained and read only while Network.wake is
	// armed (applyArb re-seeds the pending set on scan->wake
	// transitions).
	pending       pointMask
	linkWaiters   []pointMask
	creditWaiters []pointMask
	waitPorts     []ib.PortID
	portListed    []bool
	timeParked    []int32
	parkAt        []sim.Time
	parkedMask    pointMask
	pointIdx      []int32
	parks         uint64
}

// ID returns the switch's topology ID.
func (sw *Switch) ID() int { return sw.id }

// Enhanced reports whether this switch carries the paper's adaptive
// extensions (§4.2 mixed subnets may contain both kinds).
func (sw *Switch) Enhanced() bool { return sw.enhanced }

// Table exposes the forwarding table for the subnet manager.
func (sw *Switch) Table() *core.AdaptiveTable { return sw.table }

// Dead reports whether the switch has failed whole (SetSwitchDown).
func (sw *Switch) Dead() bool { return sw.dead }

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

// QueuedPackets counts packets buffered in the switch.
func (sw *Switch) QueuedPackets() int { return sw.queuedPackets() }

// ScanBuffers calls fn for every wired (port, VL) input buffer with
// its current depth and head packet ID (0 when empty), in a fixed
// port-major order. The forward-progress watchdog samples these to
// detect service points whose head packet stopped moving.
func (sw *Switch) ScanBuffers(fn func(port ib.PortID, vl int, depth int, headID uint64)) {
	slab := &sw.net.slab
	for p, in := range sw.in {
		if in == nil {
			continue
		}
		for vl, buf := range in.vls {
			var head uint64
			if id := buf.head(); id >= 0 {
				head = slab.pkt[id].ID
			}
			fn(ib.PortID(p), vl, buf.len(), head)
		}
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
	sw.vlOf = make([]int8, len(sw.out)*ib.MaxVLs)
	for p := range sw.out {
		for sl := 0; sl < ib.MaxVLs; sl++ {
			vl, err := sw.sl2vl.VL(0, p, sl)
			if err != nil {
				panic(fmt.Sprintf("fabric: switch %d: %v", sw.id, err))
			}
			sw.vlOf[p*ib.MaxVLs+sl] = int8(vl)
		}
	}
	sw.arbFn = func() {
		sw.arbPending = false
		if prof.HotPhasesEnabled() {
			prof.Phase(prof.PhaseArbitrate, sw.arbitrate)
			return
		}
		sw.arbitrate()
	}
	for _, in := range sw.in {
		if in == nil {
			continue
		}
		for _, buf := range in.vls {
			buf.slab = &sw.net.slab
		}
	}
}

// receive is the head arrival of a packet on (port, vl). The
// forwarding table is accessed immediately ("as soon as a packet
// arrives at the switch, before reaching the head of the input
// buffer", §4.3); the packet becomes servable after RoutingDelay.
func (sw *Switch) receive(port ib.PortID, vl int, pkt *ib.Packet) {
	if sw.dead {
		// The switch failed while the packet was on the wire: it is
		// discarded at the dead input, and the freed buffer space is
		// reported upstream so credit conservation holds.
		sw.net.scheduleCreditReturn(ib.PropagationDelay, sw.in[port].upstream, vl, pkt.Credits())
		sw.net.dropPacket(pkt, DropDeadPort)
		return
	}
	now := sw.net.Engine.Now()
	slab := &sw.net.slab
	id := slab.alloc()
	slab.pkt[id] = pkt
	slab.readyAt[id] = now + ib.RoutingDelay
	slab.credits[id] = int32(pkt.Credits())
	slab.sl[id] = int32(pkt.SL)
	if pkt.Adaptive {
		slab.flags[id] = entryPktAdaptive
	}
	if sw.enhanced {
		escape, adaptive, err := sw.table.Lookup(pkt.DLID)
		if err != nil {
			slab.release(id)
			sw.dropUnroutable(port, vl, pkt)
			return
		}
		if sw.net.tamper.AdaptiveDeterministic && len(adaptive) == 0 && sw.table.LMC() > 0 {
			// Mutation model: the service-mode bit is ignored, so a
			// deterministic DLID fetches its block's adaptive options
			// too (DLID|1 stays inside the 2^LMC-aligned block).
			if esc2, ad2, err2 := sw.table.Lookup(pkt.DLID | 1); err2 == nil {
				escape, adaptive = esc2, ad2
			}
		}
		slab.escape[id], slab.adaptive[id] = escape, adaptive
		if !sw.net.Cfg.Selection.AtArbitration {
			sw.selectImmediate(id)
		}
	} else {
		// Plain IBA switch: a linear lookup of the exact DLID yields
		// the single routing option.
		p := sw.table.Get(pkt.DLID)
		if p == ib.InvalidPort {
			slab.release(id)
			sw.dropUnroutable(port, vl, pkt)
			return
		}
		slab.escape[id] = p
	}
	// The SLtoVL mapping of the escape option never changes while the
	// entry is buffered (Reroute recomputes it with the table), so
	// resolve it once here instead of on every escape probe.
	slab.escVL[id] = int8(sw.outVL(int(slab.sl[id]), slab.escape[id]))
	sw.in[port].vls[vl].push(id)
	sw.occupancy++
	if sw.net.wake {
		sw.wakeArrival(port, vl)
	}
	sw.net.scheduleSwitchKick(ib.RoutingDelay, sw)
}

// dropUnroutable discards a packet whose DLID has no programmed port
// (a mid-reconfiguration transient) and returns its buffer space to
// the upstream transmitter.
func (sw *Switch) dropUnroutable(port ib.PortID, vl int, pkt *ib.Packet) {
	sw.net.scheduleCreditReturn(ib.PropagationDelay, sw.in[port].upstream, vl, pkt.Credits())
	sw.net.dropPacket(pkt, DropUnroutable)
}

// selectImmediate fixes the output port right after the table access
// (§4.3 immediate selection). Status-aware immediate selection uses
// the credit/link status at this moment; static selection picks
// uniformly among all returned options.
func (sw *Switch) selectImmediate(id int32) {
	slab := &sw.net.slab
	adaptive := slab.adaptive[id]
	if slab.flags[id]&entryPktAdaptive == 0 || len(adaptive) == 0 || sw.escapeOnly {
		slab.chosen[id] = slab.escape[id]
		slab.flags[id] &^= entryChosenAdaptive
		return
	}
	now := sw.net.Engine.Now()
	if sw.net.Cfg.Selection.StatusAware {
		cands := sw.adaptiveCandidates(id, now)
		if i := core.PickAdaptive(sw.net.Cfg.Selection, cands, sw.net.rng); i >= 0 {
			slab.chosen[id] = cands[i].Port
			slab.flags[id] |= entryChosenAdaptive
			return
		}
		slab.chosen[id] = slab.escape[id]
		slab.flags[id] &^= entryChosenAdaptive
		return
	}
	// Static: uniform over adaptive options plus the escape option.
	k := sw.net.rng.Intn(len(adaptive) + 1)
	if k < len(adaptive) {
		slab.chosen[id] = adaptive[k]
		slab.flags[id] |= entryChosenAdaptive
	} else {
		slab.chosen[id] = slab.escape[id]
		slab.flags[id] &^= entryChosenAdaptive
	}
}

// adaptiveCandidates builds the selector's view of an entry's adaptive
// options: eligibility = output link free now and the next hop's
// adaptive queue can hold the whole packet. The returned slice aliases
// the switch's scratch buffer and is only valid until the next call.
func (sw *Switch) adaptiveCandidates(id int32, now sim.Time) []core.Candidate {
	slab := &sw.net.slab
	adaptive := slab.adaptive[id]
	if cap(sw.candScratch) < len(adaptive) {
		sw.candScratch = make([]core.Candidate, len(adaptive))
	}
	cands := sw.candScratch[:len(adaptive)]
	pktCredits := int(slab.credits[id])
	sl := int(slab.sl[id])
	for i, p := range adaptive {
		o := sw.out[p]
		c := core.Candidate{Port: p}
		if o != nil {
			vl := sw.outVL(sl, p)
			avail := o.credits[vl]
			if o.peerHost != nil {
				// Delivery port: the CA drains at line rate and has no
				// queue split; total room is the condition.
				c.AdaptiveCredits = avail
				c.Eligible = o.free(now) && sw.net.Cfg.Split.CanUseEscape(avail, pktCredits)
			} else {
				c.AdaptiveCredits = sw.net.Cfg.Split.Adaptive(avail)
				c.Eligible = o.free(now) && sw.adaptiveRoom(avail, pktCredits)
			}
		}
		cands[i] = c
	}
	return cands
}

// bestAdaptive is the single-pass fast path for the default selection
// policy (arbitration-time, status-aware): it computes each option's
// eligibility and adaptive credit count exactly as adaptiveCandidates
// does and tracks the first maximum inline, matching
// core.PickAdaptive's strict-greater scan over the same order — same
// winner, no candidate slice materialized, and (like the slow path for
// this policy) no RNG consumption.
func (sw *Switch) bestAdaptive(id int32, now sim.Time) (ib.PortID, bool) {
	slab := &sw.net.slab
	pktCredits := int(slab.credits[id])
	sl := int(slab.sl[id])
	best, bestCredits := ib.InvalidPort, -1
	for _, p := range slab.adaptive[id] {
		o := sw.out[p]
		if o == nil || !o.free(now) {
			continue
		}
		avail := o.credits[sw.outVL(sl, p)]
		var credits int
		var eligible bool
		if o.peerHost != nil {
			credits = avail
			eligible = sw.net.Cfg.Split.CanUseEscape(avail, pktCredits)
		} else {
			credits = sw.net.Cfg.Split.Adaptive(avail)
			eligible = sw.adaptiveRoom(avail, pktCredits)
		}
		if eligible && credits > bestCredits {
			best, bestCredits = p, credits
		}
	}
	return best, best != ib.InvalidPort
}

// adaptiveRoom is the §4.4 adaptive-admission condition: the adaptive
// region of the next hop's buffer must hold the whole packet,
// C_XYA = max(0, C_XY − C_0) >= pktCredits. The tamper flag swaps in
// the (wrong) total-room condition for the mutation suite.
func (sw *Switch) adaptiveRoom(avail, pktCredits int) bool {
	if sw.net.tamper.SkipAdaptiveRoomCheck {
		return sw.net.Cfg.Split.CanUseEscape(avail, pktCredits)
	}
	return sw.net.Cfg.Split.CanUseAdaptive(avail, pktCredits)
}

// escapeUsable reports whether the escape option of an entry can fire
// now: link free and the next VL has room for the whole packet. The
// escape VL was resolved once at arrival (slab.escVL), so the probe
// skips the SLtoVL multiply-and-index.
func (sw *Switch) escapeUsable(id int32, now sim.Time) bool {
	slab := &sw.net.slab
	o := sw.out[slab.escape[id]]
	if o == nil || !o.free(now) {
		return false
	}
	return sw.net.Cfg.Split.CanUseEscape(o.credits[slab.escVL[id]], int(slab.credits[id]))
}

// outVL computes the VL a packet with service level sl will use on the
// chosen output link via the SLtoVL table. The input port is not
// tracked per entry because the default mapping ignores it; using
// port 0 keeps the lookup well-formed. (Entries could carry their
// input port if a QoS-style SLtoVL configuration ever needs it.)
func (sw *Switch) outVL(sl int, out ib.PortID) int {
	return int(sw.vlOf[int(out)*ib.MaxVLs+sl])
}

// servicePoint identifies one crossbar connection of an input buffer.
type servicePoint struct {
	port ib.PortID
	vl   int
}

// arbitrate is the crossbar allocation pass, dispatching to the
// configured arbiter: the wake-list drain (default) or the full
// round-robin scan (ArbScan, the differential oracle — also forced
// whenever a tamper model is installed). Both produce byte-identical
// results; see wake.go for the equivalence argument.
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
			buf := sw.bufs[j]
			if len(buf.ids) == 0 {
				continue
			}
			if sw.tryServe(buf, points[j], now) {
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

// tryServe attempts to dispatch from both service points of one
// buffer. It returns true if any packet left.
func (sw *Switch) tryServe(buf *vlBuffer, sp servicePoint, now sim.Time) bool {
	served := false
	slab := buf.slab
	// Buffer head (adaptive-queue head).
	if id := buf.head(); id >= 0 && slab.readyAt[id] <= now {
		if out, asAdaptive, ok := sw.chooseOutput(id, now); ok {
			sw.startTx(buf, 0, sp, out, asAdaptive)
			served = true
		}
	}
	// Escape-queue connection, served independently (§4.4); the
	// in-order pointer may redirect it to the first deterministic
	// packet still in the adaptive region (see escapeService).
	if idx, id := buf.escapeService(); id >= 0 && idx > 0 && slab.readyAt[id] <= now {
		if out, asAdaptive, ok := sw.chooseOutput(id, now); ok {
			sw.startTx(buf, idx, sp, out, asAdaptive)
			served = true
		}
	}
	return served
}

// chooseOutput picks the output port for a servable entry under the
// configured selection policy, returning ok=false when nothing can
// fire now.
func (sw *Switch) chooseOutput(id int32, now sim.Time) (out ib.PortID, asAdaptive bool, ok bool) {
	slab := &sw.net.slab
	if chosen := slab.chosen[id]; chosen != ib.InvalidPort {
		// Immediate selection: the decision is fixed; wait until that
		// specific option can fire.
		o := sw.out[chosen]
		if o == nil || !o.free(now) {
			return 0, false, false
		}
		vl := sw.outVL(int(slab.sl[id]), chosen)
		avail := o.credits[vl]
		pktCredits := int(slab.credits[id])
		usable := sw.net.Cfg.Split.CanUseEscape(avail, pktCredits)
		chosenAdaptive := slab.flags[id]&entryChosenAdaptive != 0
		if chosenAdaptive && o.peerHost == nil {
			usable = sw.adaptiveRoom(avail, pktCredits)
		}
		if !usable {
			return 0, false, false
		}
		return chosen, chosenAdaptive, true
	}
	// Arbitration-time selection: adaptive options first (preference
	// for minimal paths, §3), escape as fallback. The staged-reconfig
	// transient (escapeOnly) suppresses adaptive moves computed from a
	// stale table.
	adaptivePkt := slab.flags[id]&entryPktAdaptive != 0 || sw.net.tamper.AdaptiveDeterministic
	if adaptivePkt && len(slab.adaptive[id]) > 0 && sw.enhanced && !sw.escapeOnly {
		if sel := sw.net.Cfg.Selection; sel.StatusAware {
			if p, ok := sw.bestAdaptive(id, now); ok {
				return p, true, true
			}
		} else {
			cands := sw.adaptiveCandidates(id, now)
			if i := core.PickAdaptive(sel, cands, sw.net.rng); i >= 0 {
				return cands[i].Port, true, true
			}
		}
		if sw.net.tamper.NoEscapeFallback {
			// Mutation model: the §4.4 escape fallback is dropped —
			// a blocked adaptive packet just waits for adaptive room.
			return 0, false, false
		}
	}
	if sw.escapeUsable(id, now) {
		return slab.escape[id], false, true
	}
	return 0, false, false
}

// startTx dequeues the entry at idx and begins its transmission on the
// output port (see transmit); when hot-phase profiling is active the
// work is wrapped in the depart pprof label.
func (sw *Switch) startTx(buf *vlBuffer, idx int, sp servicePoint, out ib.PortID, asAdaptive bool) {
	if prof.HotPhasesEnabled() {
		prof.Phase(prof.PhaseDepart, func() { sw.transmit(buf, idx, sp, out, asAdaptive) })
		return
	}
	sw.transmit(buf, idx, sp, out, asAdaptive)
}

// transmit dequeues the entry at idx and begins its transmission on
// the output port: credits are reserved for the whole packet (VCT),
// the link is held for the serialization time, the credit update for
// this switch's own input buffer travels back after the tail leaves,
// and the head arrives at the peer after the propagation delay.
func (sw *Switch) transmit(buf *vlBuffer, idx int, sp servicePoint, out ib.PortID, asAdaptive bool) {
	now := sw.net.Engine.Now()
	slab := &sw.net.slab
	id := buf.removeAt(idx)
	sw.occupancy--
	pkt := slab.pkt[id]
	o := sw.out[out]
	vl := sw.outVL(int(slab.sl[id]), out)
	ser := ib.SerializationTime(pkt.Size)
	credits := int(slab.credits[id])

	o.credits[vl] -= credits
	if o.credits[vl] < 0 {
		panic(fmt.Sprintf("fabric: switch %d port %d vl %d negative credits", sw.id, out, vl))
	}
	o.busyUntil = now + ser
	o.busyAccum += ser
	o.txPackets++
	pkt.Hops++
	sw.net.moved++
	if sw.net.OnHop != nil {
		sw.net.OnHop(pkt, sw.id, out, asAdaptive)
	}

	// Credit update to our upstream once the tail has left this
	// buffer (ser) and flown back (prop).
	sw.net.scheduleCreditReturn(ser+ib.PropagationDelay, sw.in[sp.port].upstream, sp.vl, credits)

	if o.peerHost != nil {
		sw.net.scheduleDeliver(ser+ib.PropagationDelay, o.peerHost, pkt)
		// The CA drains at line rate: its buffer frees as the tail
		// arrives, and the credit update flies back one propagation
		// delay later.
		sw.net.scheduleCreditReturn(ser+2*ib.PropagationDelay, o, vl, credits)
	} else {
		sw.net.scheduleReceive(ib.PropagationDelay, o.peerSwitch, o.peerPort, vl, pkt)
	}
	// The link frees at ser; look for more work then.
	sw.net.scheduleSwitchKick(ser, sw)
	// The entry's journey through this switch is over; recycle it.
	slab.release(id)
}

// buildServicePoints enumerates the wired (port, VL) buffers; the
// result is cached in sw.points at wiring time.
func (sw *Switch) buildServicePoints() []servicePoint {
	np := 0
	for _, in := range sw.in {
		if in != nil {
			np += len(in.vls)
		}
	}
	pts := make([]servicePoint, 0, np)
	if cap(sw.bufs) < np {
		sw.bufs = make([]*vlBuffer, 0, np)
	} else {
		sw.bufs = sw.bufs[:0]
	}
	for p, in := range sw.in {
		if in == nil {
			continue
		}
		for vl := range in.vls {
			pts = append(pts, servicePoint{port: ib.PortID(p), vl: vl})
			sw.bufs = append(sw.bufs, in.vls[vl])
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
		if in == nil {
			continue
		}
		for _, b := range in.vls {
			n += b.len()
		}
	}
	return n
}
