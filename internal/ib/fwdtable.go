package ib

import "fmt"

// PortID numbers the ports of one switch (0-based). The fabric package
// assigns host-facing ports first, then inter-switch ports.
type PortID int

// InvalidPort marks unprogrammed forwarding-table entries.
const InvalidPort PortID = -1

// MaxPorts is the most ports a switch can have. IBA port numbers are
// 8 bits, and a forwarding-table entry keeps 255 to mean unprogrammed,
// so ports are numbered 0..254.
const MaxPorts = 255

// unprogrammed is the stored form of InvalidPort.
const unprogrammed = 0xFF

// LinearForwardingTable is the spec's linear forwarding table: a plain
// array of output ports indexed by DLID ("the LID acts as an index
// into the table"). This is the only view the subnet manager has; the
// adaptive extension in internal/core wraps it without changing this
// interface, which is how the paper's proposal stays spec-compatible.
// Each entry is one byte, as an IBA port number is.
type LinearForwardingTable struct {
	ports []uint8
}

// NewLinearForwardingTable returns a table covering LIDs [0, maxLID],
// all entries invalid.
func NewLinearForwardingTable(maxLID LID) *LinearForwardingTable {
	ports := make([]uint8, int(maxLID)+1)
	for i := range ports {
		ports[i] = unprogrammed
	}
	return &LinearForwardingTable{ports: ports}
}

// Len returns the number of entries (MaxLID+1).
func (t *LinearForwardingTable) Len() int { return len(t.ports) }

// Set programs the output port for a LID, as the subnet manager does
// at initialization time. InvalidPort clears the entry; a port outside
// 0..MaxPorts-1 does not fit an entry and is refused.
func (t *LinearForwardingTable) Set(lid LID, port PortID) error {
	if int(lid) >= len(t.ports) {
		return fmt.Errorf("ib: LID %d beyond table size %d", lid, len(t.ports))
	}
	switch {
	case port == InvalidPort:
		t.ports[lid] = unprogrammed
	case port < 0 || port >= MaxPorts:
		return fmt.Errorf("ib: port %d does not fit a forwarding-table entry (0..%d)", port, MaxPorts-1)
	default:
		t.ports[lid] = uint8(port)
	}
	return nil
}

// Get returns the programmed port for a LID (InvalidPort if none).
func (t *LinearForwardingTable) Get(lid LID) PortID {
	if int(lid) >= len(t.ports) || t.ports[lid] == unprogrammed {
		return InvalidPort
	}
	return PortID(t.ports[lid])
}
