package fabric

import (
	"math/bits"

	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// Event-driven wait-list arbitration. The scanning arbiter
// (arbitrateScan) probes every non-empty service point on every kick
// and repeats the full round-robin scan until a pass makes no
// progress — O(points) worth of chooseOutput work per pass even when
// every head is blocked. But the §4.4 admission rules mean a blocked
// entry can only become servable when one *specific* condition
// changes: its output link frees, credits return on a specific
// output port, or its readyAt arrives. The wake arbiter
// (arbitrateWake) exploits that: a failed probe records the
// conditions that refused it and the service point is registered on
// those precise wait lists, and the events that change them wake only
// the registered points into a pending set that arbitrate drains in
// exactly the order the full scan would have served them.
//
// Exactness argument (why wake-mode results are byte-identical to the
// scan, including the RNG stream and the rr trajectory):
//
//  1. Failed probes are side-effect-free. chooseOutput on a blocked
//     entry mutates nothing but the visit's wait records and draws no
//     RNG — pickAdaptive's static selection returns false without an
//     Intn call when no option is usable, and its status-aware
//     selection never draws. So eliding the failing probes the scan
//     would have repeated changes no state.
//  2. Within one arbitrate call (fixed now), a serve can only worsen
//     every OTHER point's conditions: it consumes output credits,
//     extends an output link's busyUntil, and everything it schedules
//     (credit returns, the peer receive, the ser-kick) lands strictly
//     in the future. Only the served point itself can improve (its
//     next head surfaces), and a served point keeps its pending bit,
//     so it is re-probed on the next pass exactly as the scan would.
//     Hence a point that failed earlier in the call cannot have
//     become servable, and skipping it is observationally identical.
//  3. Across calls, every condition change is co-located with a wake:
//     packet arrival -> receive sets the point's pending bit; credit
//     return -> evCreditReturn calls wakeCredits on the owning switch
//     before the follow-up pass runs; link free -> transmit always
//     schedules a switch kick at exactly busyUntil, and the arbitrate
//     that kick triggers sweeps the link-waiter list first; readyAt ->
//     the arrival kick at +RoutingDelay (and the time-parked sweep)
//     covers it. Control-plane mutations that can improve conditions
//     wholesale (SetLinkUp, SetSwitchUp, SetEscapeOnly(false),
//     Reroute, SetTamper and the Tamper* mutation hooks) wake every
//     point.
//  4. Waits are recorded by the probe itself, not re-derived: while a
//     visit probes, usable records every wired option it refuses with
//     its first-failing condition (link busy or down before credits),
//     and a visit that serves nothing parks the point on exactly those
//     records. Whatever chooseOutput consults — selection mode,
//     escape-only transient, tamper model — the waits follow. That is
//     self-correcting: a wake re-probes the point, and if a different
//     condition now blocks it, the re-probe records and parks there.
//     Stale registrations (left behind by wakeAll or by a point moving
//     on) cause only spurious wakes, which are harmless by (1).
//
// Tamper models and mutation hooks run on this arbiter too. They
// change forwarding state without the events that wake waiters (a rule
// swapped, credits forged, the split, a table or an occupancy counter
// rewritten). Rather than argue hook by hook which refused probe each
// could now admit, SetTamper and every Tamper* hook wake all points of
// every switch (Network.wakeAll). They kick nothing: the next
// allocation pass of each switch re-probes every point, exactly as the
// scan would at that same pass. The probes then run the tampered
// rules, so by (4) the waits follow them.

// wait is one condition a refused routing option waits on: the link of
// output port port (busy or down) when link is set, its credits
// otherwise.
type wait struct {
	port ib.PortID
	link bool
}

// pointMask is a bitmask over a switch's service points. Switches can
// have more than 64 wired ports, so it is multi-word; all masks are
// preallocated at wiring time and never grow.
type pointMask []uint64

func (m pointMask) set(i int)       { m[i>>6] |= 1 << (uint(i) & 63) }
func (m pointMask) clear(i int)     { m[i>>6] &^= 1 << (uint(i) & 63) }
func (m pointMask) test(i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }

// or merges other into m; zero clears every bit.
func (m pointMask) or(other pointMask) {
	for w := range m {
		m[w] |= other[w]
	}
}

func (m pointMask) zero() {
	for w := range m {
		m[w] = 0
	}
}

// setAll sets bits 0..n-1.
func (m pointMask) setAll(n int) {
	for w := range m {
		m[w] = ^uint64(0)
	}
	if rem := uint(n) & 63; rem != 0 {
		m[len(m)-1] = (1 << rem) - 1
	}
}

// initWakeState preallocates every switch's wait-list structures out
// of network-level backing arrays, carved after wiring is final (the
// service-point slices exist by then). The state is dozens of tiny
// slices per switch — one mask per waitable condition — and
// allocating them individually dominated network-construction
// allocations; one arena per network keeps construction cheap and
// every slice sized for its worst case, so steady-state operation
// never allocates. A visit that serves nothing records at most one
// wait per routing option of its two entries: len(out) deduplicated
// adaptive ports plus the escape port each. A visit that serves may
// record more (static selection probes its options twice) and throws
// them away; were that to outgrow blocked, append would grow it once.
func (n *Network) initWakeState() {
	var words, times, ints, ports, bools, masks, waits int
	for _, sw := range n.Switches {
		np := len(sw.points)
		w := (np + 63) / 64
		wired := 0
		for _, o := range sw.out {
			if o != nil {
				wired++
			}
		}
		words += w * (2 + 2*wired)
		times += np
		ints += np + len(sw.in)
		ports += len(sw.out)
		bools += len(sw.out)
		masks += 2 * len(sw.out)
		waits += 2*len(sw.out) + 2
	}
	wordArena := make([]uint64, words)
	timeArena := make([]sim.Time, times)
	intArena := make([]int32, ints)
	portArena := make([]ib.PortID, ports)
	boolArena := make([]bool, bools)
	maskArena := make([]pointMask, masks)
	waitArena := make([]wait, waits)
	takeMask := func(w int) pointMask {
		m := pointMask(wordArena[:w:w])
		wordArena = wordArena[w:]
		return m
	}
	for _, sw := range n.Switches {
		np := len(sw.points)
		w := (np + 63) / 64
		nout := len(sw.out)
		nin := len(sw.in)
		sw.pending = takeMask(w)
		sw.parkedMask = takeMask(w)
		sw.parkAt, timeArena = timeArena[:np:np], timeArena[np:]
		sw.timeParked, intArena = intArena[:0:np], intArena[np:]
		sw.linkWaiters, maskArena = maskArena[:nout:nout], maskArena[nout:]
		sw.creditWaiters, maskArena = maskArena[:nout:nout], maskArena[nout:]
		for p := range sw.out {
			if sw.out[p] != nil {
				sw.linkWaiters[p] = takeMask(w)
				sw.creditWaiters[p] = takeMask(w)
			}
		}
		sw.waitPorts, portArena = portArena[:0:nout], portArena[nout:]
		sw.portListed, boolArena = boolArena[:nout:nout], boolArena[nout:]
		sw.pointIdx, intArena = intArena[:nin:nin], intArena[nin:]
		nw := 2*nout + 2
		sw.blocked, waitArena = waitArena[:0:nw], waitArena[nw:]
		for i := range sw.pointIdx {
			sw.pointIdx[i] = -1
		}
		for j, port := range sw.points {
			sw.pointIdx[port] = int32(j)
		}
	}
}

// wakeArrival marks the service point of an input port pending — a
// packet was pushed there. The call sites gate on Network.wake: the scan
// oracle must not pay bookkeeping it never reads.
func (sw *Switch) wakeArrival(port ib.PortID) {
	sw.pending.set(int(sw.pointIdx[port]))
}

// wakeCredits wakes every point waiting for credits on output port
// port. Called by evCreditReturn right after the credit increment,
// before the follow-up allocation pass runs.
func (sw *Switch) wakeCredits(port ib.PortID) {
	w := sw.creditWaiters[port]
	sw.pending.or(w)
	w.zero()
}

// wakeAllPoints marks every service point pending — the wholesale wake
// for control-plane transitions (link/switch repair, table rewrite,
// escape-only exit, tamper model or mutation hook) whose effects are
// not tied to one wait list. Stale wait-list registrations are left
// behind; they only cause spurious (side-effect-free) re-probes.
func (sw *Switch) wakeAllPoints() {
	sw.pending.setAll(len(sw.points))
}

// wakeAll wakes every point of every switch and kicks nothing, so it
// adds no event (see the tamper paragraph above).
func (n *Network) wakeAll() {
	for _, sw := range n.Switches {
		sw.wakeAllPoints()
	}
}

// refused records, while a wake-arbiter pass probes, that output port
// port refused a routing option: on its link when link is set, on its
// credits otherwise. Probes made outside a pass (immediate selection
// at arrival) record nothing.
func (sw *Switch) refused(port ib.PortID, link bool) {
	if sw.recording {
		sw.blocked = append(sw.blocked, wait{port, link})
	}
}

// parkOnLink registers point j on the link-free wait list of output
// port p. The port is entered into the sweep list once; transmit's
// ser-kick guarantees an arbitrate runs at every busyUntil expiry, so
// the entry-time sweep is the wake. A down port stays listed (its
// link never frees); SetLinkUp/SetSwitchUp wake wholesale.
func (sw *Switch) parkOnLink(j int, p ib.PortID) {
	sw.linkWaiters[p].set(j)
	if !sw.portListed[p] {
		sw.portListed[p] = true
		sw.waitPorts = append(sw.waitPorts, p)
	}
	sw.parks++
}

// parkOnCredits registers point j on the credit wait list of output
// port p.
func (sw *Switch) parkOnCredits(j int, p ib.PortID) {
	sw.creditWaiters[p].set(j)
	sw.parks++
}

// timePark parks point j until at. A point already parked keeps the
// EARLIER of the two times: after a head serve, the new head (or the
// escape entry) may need a wake before the previously recorded one,
// and a mask-only dedupe would miss it.
func (sw *Switch) timePark(j int, at sim.Time) {
	if sw.parkedMask.test(j) {
		if at < sw.parkAt[j] {
			sw.parkAt[j] = at
		}
		return
	}
	sw.parkedMask.set(j)
	sw.parkAt[j] = at
	sw.timeParked = append(sw.timeParked, int32(j))
	sw.parks++
}

// sweepWaiters promotes wait-list entries whose condition now holds
// into the pending set: output ports whose link has freed since they
// were listed, and time-parked points whose readyAt has arrived.
// Swap-removal is order-independent — promotion only sets pending
// bits, and the drain orders by rr, not by list position.
func (sw *Switch) sweepWaiters(now sim.Time) {
	for i := 0; i < len(sw.waitPorts); {
		p := sw.waitPorts[i]
		if o := sw.out[p]; o.free(now) {
			sw.pending.or(sw.linkWaiters[p])
			sw.linkWaiters[p].zero()
			sw.portListed[p] = false
			last := len(sw.waitPorts) - 1
			sw.waitPorts[i] = sw.waitPorts[last]
			sw.waitPorts = sw.waitPorts[:last]
			continue
		}
		i++
	}
	for i := 0; i < len(sw.timeParked); {
		j := sw.timeParked[i]
		if sw.parkAt[j] <= now {
			sw.pending.set(int(j))
			sw.parkedMask.clear(int(j))
			last := len(sw.timeParked) - 1
			sw.timeParked[i] = sw.timeParked[last]
			sw.timeParked = sw.timeParked[:last]
			continue
		}
		i++
	}
}

// arbitrateWake is the wake-list allocation pass: sweep the wait
// lists, then drain the pending set in the scan's round-robin order,
// repeating (like the scan's progress loop) until a pass serves
// nothing. Points that served keep their pending bit and are
// re-probed next pass; points that failed are cleared and parked on
// their recorded waits (visit). Same rr origin, same trailing rr
// advance, same occupancy short-circuits as arbitrateScan — see the
// exactness argument at the top of this file.
func (sw *Switch) arbitrateWake() {
	points := sw.points
	n := len(points)
	if n == 0 {
		return
	}
	if sw.occupancy == 0 {
		// Empty switch: the scan's only effect is the rr advance. The
		// wait lists are not swept — any stale entries are bounded (at
		// most one per point) and get swept by the next non-empty pass.
		sw.rr++
		if sw.rr == n {
			sw.rr = 0
		}
		return
	}
	now := sw.net.Engine.Now()
	if len(sw.waitPorts) != 0 || len(sw.timeParked) != 0 {
		sw.sweepWaiters(now)
	}
	sw.recording = true
	for progress := true; progress && sw.occupancy > 0; {
		progress = false
		for i := 0; i < n; {
			j := sw.rr + i
			if j >= n {
				j -= n
			}
			// Pending bits at and above j within j's mask word; bits past
			// n-1 are never set, so trailing zeros locate real points.
			w := sw.pending[j>>6] >> (uint(j) & 63)
			if w == 0 {
				// Skip the rest of the word — but not past the wrap
				// point, where offsets continue at j=0.
				skip := 64 - (j & 63)
				if lim := n - j; skip > lim {
					skip = lim
				}
				i += skip
				continue
			}
			if tz := bits.TrailingZeros64(w); tz > 0 {
				i += tz
				continue
			}
			if len(sw.bufs[j].ids) == 0 {
				// Stale pending bit (buffer drained since it was set).
				sw.pending.clear(j)
				i++
				continue
			}
			if sw.visit(j, now) {
				progress = true
				if sw.occupancy == 0 {
					break
				}
			}
			i++
		}
	}
	sw.recording = false
	sw.rr++
	if sw.rr == n {
		sw.rr = 0
	}
}

// park ends a visit to point j that served nothing: it clears the
// point's pending bit, parks it until headAt and escAt (the readyAt of
// an entry still inside its routing delay, 0 when none), and registers
// it on every wait the visit's probes recorded.
func (sw *Switch) park(j int, headAt, escAt sim.Time) {
	sw.pending.clear(j)
	if headAt > 0 {
		sw.timePark(j, headAt)
	}
	if escAt > 0 {
		sw.timePark(j, escAt)
	}
	for _, w := range sw.blocked {
		if w.link {
			sw.parkOnLink(j, w.port)
		} else {
			sw.parkOnCredits(j, w.port)
		}
	}
}
