// Package ib provides the InfiniBand Architecture (IBA) primitives the
// simulator is built from: local identifiers (LIDs) with LID Mask
// Control (LMC) ranges, packets, the spec's linear forwarding table,
// credit arithmetic, and the link/switch timing parameters of the
// paper's evaluation (§5.1).
package ib

import "ibasim/internal/sim"

// Timing and sizing constants from the paper's subnet model (§5.1).
const (
	// CreditBytes is the credit granularity of the IBA flow-control
	// scheme: buffer space is accounted in 64-byte units.
	CreditBytes = 64

	// MTU is the Maximum Transfer Unit of the evaluation (IBA allows
	// 256..4096 bytes; the paper uses 256). No packet is larger.
	MTU = 256

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
)

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
