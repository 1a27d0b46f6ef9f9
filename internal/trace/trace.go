// Package trace records packet lifecycle events (creation, per-switch
// forwarding, delivery) from a running fabric, for debugging routing
// behaviour and for the ibsim -trace flag. The recorder keeps a
// bounded ring of events so tracing a saturated run cannot exhaust
// memory.
package trace

import (
	"fmt"
	"io"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	Created Kind = iota
	Hop
	Delivered
)

func (k Kind) String() string {
	switch k {
	case Created:
		return "created"
	case Hop:
		return "hop"
	case Delivered:
		return "delivered"
	default:
		return "unknown"
	}
}

// Event is one recorded observation.
type Event struct {
	At       sim.Time
	Kind     Kind
	Packet   uint64
	Src, Dst int
	Switch   int       // Hop only
	Port     ib.PortID // Hop only
	Adaptive bool      // Hop: an adaptive routing option was used
}

// String renders the event as one trace line.
func (e Event) String() string {
	switch e.Kind {
	case Hop:
		mode := "escape"
		if e.Adaptive {
			mode = "adaptive"
		}
		return fmt.Sprintf("%10d %-9s pkt=%d %d->%d sw=%d port=%d via=%s",
			int64(e.At), e.Kind, e.Packet, e.Src, e.Dst, e.Switch, e.Port, mode)
	default:
		return fmt.Sprintf("%10d %-9s pkt=%d %d->%d",
			int64(e.At), e.Kind, e.Packet, e.Src, e.Dst)
	}
}

// Recorder captures events into a bounded ring buffer.
type Recorder struct {
	ring  []Event
	next  int
	full  bool
	total uint64

	// Filter, when set, drops events for which it returns false.
	Filter func(Event) bool

	// AdaptiveHops and EscapeHops count forwarding decisions by kind,
	// a cheap aggregate view of how often the adaptive options win.
	AdaptiveHops uint64
	EscapeHops   uint64
}

// NewRecorder allocates a recorder holding the last capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{ring: make([]Event, capacity)}
}

// Attach hooks the recorder onto a network, chaining callbacks already
// installed (a metrics collector, for instance) so both observers see
// every event. Attaching only adds callbacks: the network dispatches
// exactly the events it would dispatch unobserved.
func (r *Recorder) Attach(net *fabric.Network) {
	prevCreated := net.OnCreated
	prevDelivered := net.OnDelivered
	prevHop := net.OnHop
	net.OnCreated = func(p *ib.Packet) {
		if prevCreated != nil {
			prevCreated(p)
		}
		r.record(Event{At: p.CreatedAt, Kind: Created, Packet: p.ID, Src: p.Src, Dst: p.Dst})
	}
	net.OnDelivered = func(p *ib.Packet) {
		if prevDelivered != nil {
			prevDelivered(p)
		}
		r.record(Event{At: p.DeliveredAt, Kind: Delivered, Packet: p.ID, Src: p.Src, Dst: p.Dst})
	}
	net.OnHop = func(p *ib.Packet, sw int, out ib.PortID, adaptive bool) {
		if prevHop != nil {
			prevHop(p, sw, out, adaptive)
		}
		if adaptive {
			r.AdaptiveHops++
		} else {
			r.EscapeHops++
		}
		r.record(Event{
			At: net.Engine.Now(), Kind: Hop, Packet: p.ID,
			Src: p.Src, Dst: p.Dst, Switch: sw, Port: out, Adaptive: adaptive,
		})
	}
}

func (r *Recorder) record(e Event) {
	if r.Filter != nil && !r.Filter(e) {
		return
	}
	r.ring[r.next] = e
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
	r.total++
}

// Total returns how many events were recorded (including evicted).
func (r *Recorder) Total() uint64 { return r.total }

// Events returns the retained events in recording order.
func (r *Recorder) Events() []Event {
	if !r.full {
		return append([]Event(nil), r.ring[:r.next]...)
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Dump writes the retained events, one per line.
func (r *Recorder) Dump(w io.Writer) error {
	for _, e := range r.Events() {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}

// AdaptiveShare returns the fraction of switch forwarding decisions
// that used an adaptive routing option.
func (r *Recorder) AdaptiveShare() float64 {
	total := r.AdaptiveHops + r.EscapeHops
	if total == 0 {
		return 0
	}
	return float64(r.AdaptiveHops) / float64(total)
}
