// Package ib provides the InfiniBand Architecture (IBA) primitives the
// simulator is built from: local identifiers (LIDs) with LID Mask
// Control (LMC) ranges, packets, the spec's linear forwarding table,
// the default SL-to-VL mapping, credit arithmetic, and the link/switch
// timing parameters of the paper's evaluation (§5.1).
package ib

import (
	"fmt"

	"ibasim/internal/sim"
)

// Timing and sizing constants from the paper's subnet model (§5.1).
const (
	// CreditBytes is the credit granularity of the IBA flow-control
	// scheme: buffer space is accounted in 64-byte units.
	CreditBytes = 64

	// DefaultMTU is the Maximum Transfer Unit used in the evaluation
	// (IBA allows 256..4096 bytes; the paper uses 256).
	DefaultMTU = 256

	// RoutingDelay is the switch routing time: forwarding-table
	// access + crossbar arbitration + crossbar setup.
	RoutingDelay sim.Time = 100

	// PropagationDelay is the cable flight time: 20 m of copper at
	// 5 ns/m.
	PropagationDelay sim.Time = 100

	// LinkNsPerByte is the serialization time of one byte on a 1X
	// link: 2.5 Gbps with 8b/10b coding carries 2.0 Gbps of data,
	// i.e. 0.25 bytes/ns, i.e. 4 ns/byte.
	LinkNsPerByte sim.Time = 4

	// MaxVLs is the largest number of data virtual lanes an IBA
	// switch may implement.
	MaxVLs = 16
)

// SLtoVL is a switch's SL-to-VL mapping: a packet with service level
// sl travels on virtual lane m[sl] on every output link. The paper's
// mechanism leaves VL selection as the spec defines it, because the
// adaptive and escape queues live inside a single VL's buffer.
type SLtoVL [MaxVLs]int8

// DefaultSLtoVL returns the mapping an unconfigured subnet uses,
// sl % numVLs, or an error when numVLs is outside [1, MaxVLs].
func DefaultSLtoVL(numVLs int) (SLtoVL, error) {
	var m SLtoVL
	if numVLs < 1 || numVLs > MaxVLs {
		return m, fmt.Errorf("ib: SLtoVL with %d VLs", numVLs)
	}
	for sl := range m {
		m[sl] = int8(sl % numVLs)
	}
	return m, nil
}

// VL returns the virtual lane of service level sl. ok is false for an
// SL outside [0, MaxVLs).
func (m *SLtoVL) VL(sl int) (vl int, ok bool) {
	if sl < 0 || sl >= MaxVLs {
		return 0, false
	}
	return int(m[sl]), true
}

// SerializationTime returns how long a packet of the given size
// occupies a 1X link.
func SerializationTime(sizeBytes int) sim.Time {
	return sim.Time(sizeBytes) * LinkNsPerByte
}

// Credits returns the number of 64-byte credits a packet of the given
// size consumes (rounded up, minimum 1).
func Credits(sizeBytes int) int {
	if sizeBytes <= 0 {
		return 1
	}
	return (sizeBytes + CreditBytes - 1) / CreditBytes
}
