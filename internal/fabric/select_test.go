package fabric

// In-package tests of the switch's §4.3 selection pass (pickAdaptive)
// and §4.4 admission check (usable). They set an entry's adaptive
// options and the output ports' credits and link state by hand, so
// each case states exactly which options are usable and how much room
// each has.

import (
	"testing"

	"ibasim/internal/core"
	"ibasim/internal/ib"
	"ibasim/internal/topology"
)

// pickNet wires a star under sel: switch 0 has one host port and four
// switch-facing ports, one per leaf switch. It returns the network, the
// hub switch, its host port and its switch-facing ports in neighbour
// order.
func pickNet(t *testing.T, sel core.SelectionConfig) (*Network, *Switch, ib.PortID, []ib.PortID) {
	t.Helper()
	topo := topology.New(5, 1, 5)
	for leaf := 1; leaf < 5; leaf++ {
		if err := topo.AddLink(0, leaf); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := ib.NewAddressPlan(topo.NumHosts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Selection = sel
	net, err := NewNetwork(topo, plan, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var toLeaf []ib.PortID
	for leaf := 1; leaf < 5; leaf++ {
		p, err := net.PortToNeighbor(0, leaf)
		if err != nil {
			t.Fatal(err)
		}
		toLeaf = append(toLeaf, p)
	}
	return net, net.Switches[0], net.HostPort(0), toLeaf
}

// pickEntry buffers nothing: it only fills a slab entry for a packet
// of the given credits whose adaptive options are opts, in table order.
func pickEntry(net *Network, credits int, opts ...ib.PortID) int32 {
	id := net.slab.alloc()
	net.slab.adaptive[id] = opts
	net.slab.credits[id] = int32(credits)
	return id
}

var (
	selAware  = core.SelectionConfig{AtArbitration: true, StatusAware: true}
	selStatic = core.SelectionConfig{AtArbitration: true, StatusAware: false}
)

// The default buffer holds 16 credits, 8 of them the escape reserve,
// so an adaptive hop toward a switch with c free credits has c−8 of
// adaptive room.

func TestPickAdaptiveStatusAware(t *testing.T) {
	net, sw, _, p := pickNet(t, selAware)
	sw.out[p[0]].credits = 10 // room 2
	sw.out[p[1]].credits = 14 // room 6: the most among usable options
	sw.out[p[2]].credits = 16 // room 8, but its link is busy
	sw.out[p[2]].busyUntil = 100
	sw.out[p[3]].credits = 9 // room 1: too little for 2 credits
	before := *net.rng
	got, ok := sw.pickAdaptive(pickEntry(net, 2, p...), 0)
	if !ok || got != p[1] {
		t.Fatalf("pickAdaptive = %d, %v; want port %d (most room among usable options)", got, ok, p[1])
	}
	if *net.rng != before {
		t.Fatal("status-aware selection drew from the network RNG")
	}
}

func TestPickAdaptiveTieBreaksToFirst(t *testing.T) {
	net, sw, _, p := pickNet(t, selAware)
	sw.out[p[0]].credits = 14
	sw.out[p[1]].credits = 12
	sw.out[p[2]].credits = 14
	if got, ok := sw.pickAdaptive(pickEntry(net, 2, p[2], p[1], p[0]), 0); !ok || got != p[2] {
		t.Fatalf("pickAdaptive = %d, %v; want port %d (first of the tied options in table order)", got, ok, p[2])
	}
}

// TestPickAdaptiveNoneUsable: with no usable option both policies
// return false and leave the network RNG as it was, the property the
// wake arbiter's exactness argument rests on (wake.go, point 1).
func TestPickAdaptiveNoneUsable(t *testing.T) {
	for _, sel := range []core.SelectionConfig{selAware, selStatic} {
		net, sw, host, p := pickNet(t, sel)
		sw.out[host].busyUntil = 100 // link busy
		sw.out[p[0]].credits = 11    // room 3 < 4
		sw.out[p[1]].busyUntil = 100 // link busy
		sw.out[p[2]].down = true     // cable failed
		sw.out[p[3]].credits = 8     // room 0: all escape reserve
		id := pickEntry(net, 4, host, p[0], p[1], p[2], p[3])
		before := *net.rng
		if got, ok := sw.pickAdaptive(id, 0); ok {
			t.Fatalf("%s: pickAdaptive = %d, want no usable option", sel, got)
		}
		if *net.rng != before {
			t.Fatalf("%s: a failed pick drew from the network RNG", sel)
		}
	}
}

// TestPickAdaptiveStaticUniform: static selection is uniform over the
// usable options only and draws exactly one Intn over their count.
func TestPickAdaptiveStaticUniform(t *testing.T) {
	net, sw, _, p := pickNet(t, selStatic)
	sw.out[p[1]].credits = 9 // room 1: unusable for 2 credits
	id := pickEntry(net, 2, p...)
	want := *net.rng
	want.Intn(3)
	if _, ok := sw.pickAdaptive(id, 0); !ok {
		t.Fatal("pickAdaptive found no usable option")
	}
	if *net.rng != want {
		t.Fatal("selStatic selection did not draw exactly one Intn(3)")
	}
	counts := map[ib.PortID]int{}
	for i := 0; i < 3000; i++ {
		got, _ := sw.pickAdaptive(id, 0)
		counts[got]++
	}
	if counts[p[1]] != 0 {
		t.Fatalf("selStatic selection picked the unusable port %d: %v", p[1], counts)
	}
	for _, q := range []ib.PortID{p[0], p[2], p[3]} {
		if counts[q] < 800 || counts[q] > 1200 {
			t.Fatalf("selStatic selection skewed: %v", counts)
		}
	}
}

// TestPickAdaptiveDeliveryOnTotalRoom: a CA drains at line rate and
// has no queue split, so an adaptive option toward a host is judged,
// and ranked, on the room in its whole buffer.
func TestPickAdaptiveDeliveryOnTotalRoom(t *testing.T) {
	net, sw, host, p := pickNet(t, selAware)
	sw.out[host].credits = 4 // no adaptive room, but room for 4 credits
	if got, ok := sw.pickAdaptive(pickEntry(net, 4, host), 0); !ok || got != host {
		t.Fatalf("pickAdaptive = %d, %v; want host port %d on total room", got, ok, host)
	}
	sw.out[host].credits = 10 // room 10 beats the switch port's 8
	if got, ok := sw.pickAdaptive(pickEntry(net, 4, p[0], host), 0); !ok || got != host {
		t.Fatalf("pickAdaptive = %d, %v; want host port %d ranked on total room", got, ok, host)
	}
}

// TestPickAdaptiveSkipRoomCheckTamper: the mutation model admits an
// adaptive hop toward a switch on total room, not adaptive room.
func TestPickAdaptiveSkipRoomCheckTamper(t *testing.T) {
	net, sw, _, p := pickNet(t, selAware)
	sw.out[p[0]].credits = 6 // room 0 in the adaptive region
	id := pickEntry(net, 4, p[0])
	if _, ok := sw.pickAdaptive(id, 0); ok {
		t.Fatal("honest switch admitted a packet with no adaptive room")
	}
	net.tamper.SkipAdaptiveRoomCheck = true
	if got, ok := sw.pickAdaptive(id, 0); !ok || got != p[0] {
		t.Fatalf("tampered pickAdaptive = %d, %v; want port %d on total room", got, ok, p[0])
	}
}

// TestUsable states §4.4 per hop kind: an unwired port or a busy link
// never admits; an adaptive hop toward a switch needs adaptive room,
// and an escape hop needs room in the whole buffer.
func TestUsable(t *testing.T) {
	net, sw, _, p := pickNet(t, selAware)
	sw.out[p[0]].credits = 10
	cases := []struct {
		name       string
		sw         *Switch
		port       ib.PortID
		credits    int
		asAdaptive bool
		room       int
		ok         bool
	}{
		{"adaptive within adaptive room", sw, p[0], 2, true, 2, true},
		{"adaptive past adaptive room", sw, p[0], 3, true, 2, false},
		{"escape on total room", sw, p[0], 10, false, 10, true},
		{"escape past total room", sw, p[0], 11, false, 10, false},
		{"unwired port", net.Switches[1], 4, 1, false, 0, false},
	}
	for _, c := range cases {
		if room, ok := c.sw.usable(c.port, c.credits, c.asAdaptive, 0); room != c.room || ok != c.ok {
			t.Errorf("%s: usable = %d, %v; want %d, %v", c.name, room, ok, c.room, c.ok)
		}
	}
	sw.out[p[0]].busyUntil = 1
	if _, ok := sw.usable(p[0], 1, false, 0); ok {
		t.Error("busy link admitted a packet")
	}
	if _, ok := sw.usable(p[0], 1, false, 1); !ok {
		t.Error("link free at busyUntil did not admit a packet")
	}
}
