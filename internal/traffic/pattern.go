// Package traffic generates the synthetic workloads of the paper's
// evaluation: uniform, bit-reversal and hot-spot destination
// distributions, fixed packet sizes (32 or 256 bytes), a configurable
// fraction of adaptive traffic, and exponential inter-arrival times
// scaled to a target injection rate.
package traffic

import (
	"fmt"
	"math"
	"math/bits"

	"ibasim/internal/sim"
)

// Pattern chooses a destination host for each generated packet.
type Pattern interface {
	// Dest returns the destination for a packet from src, or -1 when
	// the pattern generates no traffic from src (e.g. bit-reversal
	// fixed points). numHosts is fixed for a simulation.
	//
	// Dest may depend only on src and on what it draws from rng. A
	// host replays its generated packets from a copy of its RNG stream
	// as they reach the head of its source queue (see fabric.Stream),
	// so any other input, or state that Dest changes, would replay a
	// different destination than the one generated.
	Dest(src int, rng *sim.RNG) int
}

// Uniform sends each packet to a destination drawn uniformly among
// all other hosts.
type Uniform struct{ NumHosts int }

// Dest implements Pattern.
func (u Uniform) Dest(src int, rng *sim.RNG) int {
	if u.NumHosts < 2 {
		return -1
	}
	d := rng.Intn(u.NumHosts - 1)
	if d >= src {
		d++
	}
	return d
}

// BitReversal sends every packet from src to the host whose index is
// the bit-reversal of src in log2(NumHosts) bits — the permutation
// traffic the paper uses to create stable local congestion. NumHosts
// must be a power of two; fixed points (palindromic indices) generate
// no traffic.
type BitReversal struct{ NumHosts int }

// NewBitReversal validates the host count.
func NewBitReversal(numHosts int) (BitReversal, error) {
	if numHosts < 2 || numHosts&(numHosts-1) != 0 {
		return BitReversal{}, fmt.Errorf("traffic: bit-reversal needs a power-of-two host count, got %d", numHosts)
	}
	return BitReversal{NumHosts: numHosts}, nil
}

// Dest implements Pattern.
func (b BitReversal) Dest(src int, _ *sim.RNG) int {
	width := bits.Len(uint(b.NumHosts)) - 1
	d := int(bits.Reverse(uint(src)) >> (bits.UintSize - width))
	if d == src {
		return -1
	}
	return d
}

// HotSpot sends a fixed fraction of traffic to one randomly chosen
// host and the rest uniformly, per §5.1 ("a node is randomly selected
// and a percentage of traffic is sent to this host").
type HotSpot struct {
	Host     int     // the hot destination
	Fraction float64 // e.g. 0.05, 0.10, 0.20
	uniform  Uniform
}

// NewHotSpot picks the hot host with the given RNG, as the paper does.
func NewHotSpot(numHosts int, fraction float64, rng *sim.RNG) (*HotSpot, error) {
	if numHosts < 2 {
		return nil, fmt.Errorf("traffic: hot-spot needs >= 2 hosts")
	}
	if math.IsNaN(fraction) || fraction < 0 || fraction > 1 {
		return nil, fmt.Errorf("traffic: hot-spot fraction %v out of [0,1]", fraction)
	}
	return &HotSpot{
		Host:     rng.Intn(numHosts),
		Fraction: fraction,
		uniform:  Uniform{NumHosts: numHosts},
	}, nil
}

// Dest implements Pattern.
func (h *HotSpot) Dest(src int, rng *sim.RNG) int {
	if rng.Bool(h.Fraction) && src != h.Host {
		return h.Host
	}
	return h.uniform.Dest(src, rng)
}
