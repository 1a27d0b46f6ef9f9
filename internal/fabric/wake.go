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
// (output port, VL), or its readyAt arrives. The wake arbiter
// (arbitrateWake) exploits that: a failed probe classifies its
// blocking conditions and registers the service point on the precise
// wait list, and the events that change those conditions wake only
// the registered points into a pending set that arbitrate drains in
// exactly the order the full scan would have served them.
//
// Exactness argument (why wake-mode results are byte-identical to the
// scan, including the RNG stream and the rr trajectory):
//
//  1. Failed probes are side-effect-free. chooseOutput on a blocked
//     entry mutates nothing and draws no RNG — core.PickAdaptive
//     returns -1 without an Intn call when no option is eligible, and
//     the status-aware bestAdaptive path never draws. So eliding the
//     failing probes the scan would have repeated changes no state.
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
//     Reroute, re-arming the wake mode) wake every point.
//  4. Registration uses the first-failing condition per routing
//     option, mirroring chooseOutput's evaluation order; that is
//     self-correcting — a wake re-probes the point, and if a
//     different condition now blocks it, the re-probe re-registers
//     there. Stale registrations (left behind by wakeAll or by a
//     point moving on) cause only spurious wakes, which are harmless
//     by (1).
//
// Tampered runs force the scan arbiter (applyArb): the mutation hooks
// mutate credits/occupancy behind the fabric's back without waking
// anyone, and the exactness argument only covers honest forwarding.

// pointMask is a bitmask over a switch's service points. Switches can
// have more than 64 points (ports x VLs), so it is multi-word; all
// masks are preallocated at wiring time and never grow.
type pointMask []uint64

func newPointMask(n int) pointMask { return make(pointMask, (n+63)/64) }

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
// never allocates.
func (n *Network) initWakeState() {
	nvl := n.Cfg.NumVLs
	var words, times, ints, ports, bools, masks int
	for _, sw := range n.Switches {
		np := len(sw.points)
		w := (np + 63) / 64
		wired := 0
		for _, o := range sw.out {
			if o != nil {
				wired++
			}
		}
		words += w * (2 + wired*(1+nvl))
		times += np
		ints += np + len(sw.in)*nvl
		ports += len(sw.out)
		bools += len(sw.out)
		masks += len(sw.out) * (1 + nvl)
	}
	wordArena := make([]uint64, words)
	timeArena := make([]sim.Time, times)
	intArena := make([]int32, ints)
	portArena := make([]ib.PortID, ports)
	boolArena := make([]bool, bools)
	maskArena := make([]pointMask, masks)
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
		sw.creditWaiters, maskArena = maskArena[:nout*nvl:nout*nvl], maskArena[nout*nvl:]
		for p := range sw.out {
			if sw.out[p] == nil {
				continue
			}
			sw.linkWaiters[p] = takeMask(w)
			for vl := 0; vl < nvl; vl++ {
				sw.creditWaiters[p*nvl+vl] = takeMask(w)
			}
		}
		sw.waitPorts, portArena = portArena[:0:nout], portArena[nout:]
		sw.portListed, boolArena = boolArena[:nout:nout], boolArena[nout:]
		sw.pointIdx, intArena = intArena[:nin*nvl:nin*nvl], intArena[nin*nvl:]
		for i := range sw.pointIdx {
			sw.pointIdx[i] = -1
		}
		for j, sp := range sw.points {
			sw.pointIdx[int(sp.port)*nvl+sp.vl] = int32(j)
		}
	}
}

// wakeArrival marks the service point of (port, vl) pending — a packet
// was pushed there. The call sites gate on Network.wake: the scan
// oracle must not pay bookkeeping it never reads, and a mid-run
// scan->wake transition is made sound by applyArb's wholesale wake
// instead.
func (sw *Switch) wakeArrival(port ib.PortID, vl int) {
	sw.pending.set(int(sw.pointIdx[int(port)*sw.net.Cfg.NumVLs+vl]))
}

// wakeCredits wakes every point waiting for credits on (port, vl).
// Called by evCreditReturn right after the credit increment, before
// the follow-up allocation pass runs.
func (sw *Switch) wakeCredits(port ib.PortID, vl int) {
	w := sw.creditWaiters[int(port)*sw.net.Cfg.NumVLs+vl]
	sw.pending.or(w)
	w.zero()
}

// wakeAllPoints marks every service point pending — the wholesale wake
// for control-plane transitions (link/switch repair, table rewrite,
// escape-only exit, wake-mode re-arm) whose effects are not tied to
// one wait list. Stale wait-list registrations are left behind; they
// only cause spurious (side-effect-free) re-probes.
func (sw *Switch) wakeAllPoints() {
	if sw.pending == nil {
		return // pre-wiring (initWakeState has not run yet)
	}
	sw.pending.setAll(len(sw.points))
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

// parkOnCredits registers point j on the credit wait list of
// (output port, VL).
func (sw *Switch) parkOnCredits(j int, p ib.PortID, vl, nvl int) {
	sw.creditWaiters[int(p)*nvl+vl].set(j)
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
// their blocking conditions. Same rr origin, same trailing rr
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
			buf := sw.bufs[j]
			if len(buf.ids) == 0 {
				// Stale pending bit (buffer drained since it was set).
				sw.pending.clear(j)
				i++
				continue
			}
			if sw.tryServeWake(buf, j, now) {
				progress = true
				if sw.occupancy == 0 {
					break
				}
			}
			i++
		}
	}
	sw.rr++
	if sw.rr == n {
		sw.rr = 0
	}
}

// tryServeWake mirrors tryServe — probe the buffer head, then the
// (recomputed) escape-service entry — and on a fully failed visit
// clears the point's pending bit and registers both entries'
// blocking conditions. A visit that served anything keeps the bit:
// the next pass re-probes, exactly like the scan.
func (sw *Switch) tryServeWake(buf *vlBuffer, j int, now sim.Time) bool {
	served := false
	slab := buf.slab
	var headWait, escWait sim.Time             // readyAt still in the future
	var headBlocked, escBlocked int32 = -1, -1 // ready but nothing could fire
	if id := buf.head(); id >= 0 {
		if slab.readyAt[id] <= now {
			if out, asAdaptive, ok := sw.chooseOutput(id, now); ok {
				sw.startTx(buf, 0, sw.points[j], out, asAdaptive)
				served = true
			} else {
				headBlocked = id
			}
		} else {
			headWait = slab.readyAt[id]
		}
	}
	if idx, id := buf.escapeService(); id >= 0 && idx > 0 {
		if slab.readyAt[id] <= now {
			if out, asAdaptive, ok := sw.chooseOutput(id, now); ok {
				sw.startTx(buf, idx, sw.points[j], out, asAdaptive)
				served = true
			} else {
				escBlocked = id
			}
		} else {
			escWait = slab.readyAt[id]
		}
	}
	if served {
		return true
	}
	sw.pending.clear(j)
	if headWait > 0 {
		sw.timePark(j, headWait)
	}
	if escWait > 0 {
		sw.timePark(j, escWait)
	}
	if headBlocked >= 0 {
		sw.parkBlocked(j, headBlocked, now)
	}
	if escBlocked >= 0 {
		sw.parkBlocked(j, escBlocked, now)
	}
	return false
}

// parkBlocked registers point j on the wait list of each condition
// that blocked entry id, mirroring chooseOutput's evaluation order:
// for every routing option the entry may use, the first-failing
// condition (link busy before credits, as free() is checked first).
// Options on unwired ports register nothing — wiring is static, and
// the table rewrites that could replace them (Reroute) wake
// wholesale. Tamper-specific chooseOutput branches need no mirror:
// the wake arbiter only runs with a zero tamper model.
func (sw *Switch) parkBlocked(j int, id int32, now sim.Time) {
	slab := &sw.net.slab
	nvl := sw.net.Cfg.NumVLs
	if chosen := slab.chosen[id]; chosen != ib.InvalidPort {
		// Immediate selection: the decision is fixed; only the chosen
		// option's conditions matter.
		o := sw.out[chosen]
		if o == nil {
			return
		}
		if !o.free(now) {
			sw.parkOnLink(j, chosen)
			return
		}
		sw.parkOnCredits(j, chosen, sw.outVL(int(slab.sl[id]), chosen), nvl)
		return
	}
	if slab.flags[id]&entryPktAdaptive != 0 && len(slab.adaptive[id]) > 0 && sw.enhanced && !sw.escapeOnly {
		sl := int(slab.sl[id])
		for _, p := range slab.adaptive[id] {
			o := sw.out[p]
			if o == nil {
				continue
			}
			if !o.free(now) {
				sw.parkOnLink(j, p)
			} else {
				sw.parkOnCredits(j, p, sw.outVL(sl, p), nvl)
			}
		}
	}
	// Escape fallback (always probed by chooseOutput when the entry
	// reaches here — wake mode never runs under NoEscapeFallback).
	esc := slab.escape[id]
	o := sw.out[esc]
	if o == nil {
		return
	}
	if !o.free(now) {
		sw.parkOnLink(j, esc)
		return
	}
	sw.parkOnCredits(j, esc, int(slab.escVL[id]), nvl)
}
