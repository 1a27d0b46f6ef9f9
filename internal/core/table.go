// Package core implements the paper's primary contribution: IBA
// switch extensions that support fully adaptive routing while staying
// compatible with the InfiniBand specification.
//
// Three mechanisms make it up:
//
//   - AdaptiveTable (§4.1, Figure 1): the linear forwarding table is
//     physically arranged as an interleaved memory of 2^LMC modules so
//     that one access returns every routing option of a destination,
//     while the subnet manager keeps seeing a plain linear table.
//   - The DLID low-bit convention (§4.2): sources pick the base
//     address of the destination's LID range for deterministic
//     service or base+1 for adaptive service; switches inspect one
//     bit to decide whether to return one option or all of them.
//   - The adaptive/escape queue split with credit accounting (§4.4,
//     Figure 2): each VL buffer is divided into a logical adaptive
//     queue (first half) and escape queue (second half), and the
//     per-VL credit count is split as
//     C_A = max(0, C - C_max/2), C_E = min(C_max/2, C)
//     so the sender can tell whether the *adaptive* region of the
//     next-hop buffer can hold a whole packet — the condition that
//     keeps the fully adaptive algorithm deadlock-free.
package core

import (
	"fmt"
	"slices"

	"ibasim/internal/ib"
)

// blockOptions is the decoded option set of one 2^LMC-aligned LID
// block: the single table access the enhanced switch performs, cached
// in eight bytes. The block's adaptive options are
// arena[off:off+n] of its table; escape is the base entry's port
// (ib.InvalidPort when unprogrammed).
type blockOptions struct {
	off    uint32
	escape int16
	n      uint8
	valid  bool
}

// AdaptiveTable is the interleaved multi-option forwarding table. It
// embeds the spec's linear table as its subnet-manager-facing view:
// Set and Get behave exactly like a plain linear forwarding table
// (IBA compatibility), while Lookup is the enhanced-switch access
// returning all options for a destination in a single operation.
//
// Lookup results are cached per aligned block and invalidated by Set,
// so the steady-state forwarding path (tables programmed once, then
// millions of lookups) performs no heap allocation after the first
// access to each block — mirroring the hardware, where the decode is
// a wiring pattern of the interleaved memory, not per-packet work.
// Decoded options live in one arena per table. A decode appends a new
// region and never writes an old one, so an option slice handed out
// before a re-programming keeps its contents.
type AdaptiveTable struct {
	linear *ib.LinearForwardingTable
	lmc    uint
	blocks []blockOptions // one per 2^lmc-aligned block, decoded lazily
	arena  []ib.PortID
}

// NewAdaptiveTable builds a table for LIDs [0, maxLID] organized as
// 2^lmc interleaved modules.
func NewAdaptiveTable(maxLID ib.LID, lmc uint) (*AdaptiveTable, error) {
	if lmc > ib.MaxLMC {
		return nil, fmt.Errorf("core: LMC %d exceeds spec maximum %d", lmc, ib.MaxLMC)
	}
	linear := ib.NewLinearForwardingTable(maxLID)
	block := 1 << lmc
	return &AdaptiveTable{
		linear: linear,
		lmc:    lmc,
		blocks: make([]blockOptions, (linear.Len()+block-1)/block),
	}, nil
}

// LMC returns the table's LID Mask Control.
func (t *AdaptiveTable) LMC() uint { return t.lmc }

// Set programs one linear entry (subnet-manager view) and invalidates
// the cached decode of the entry's block, so re-programming during
// subnet reconfiguration is visible to the very next Lookup. A port
// that does not fit a one-byte entry is refused (ib.MaxPorts).
func (t *AdaptiveTable) Set(lid ib.LID, port ib.PortID) error {
	if err := t.linear.Set(lid, port); err != nil {
		return err
	}
	t.blocks[int(lid)>>t.lmc].valid = false
	return nil
}

// Get reads one linear entry (subnet-manager view).
func (t *AdaptiveTable) Get(lid ib.LID) ib.PortID { return t.linear.Get(lid) }

// Lookup is the enhanced switch's routing access. It returns:
//
//   - escape: the deterministic/escape output port stored at the base
//     address of the DLID's aligned 2^LMC block;
//   - adaptive: the remaining programmed options of the block, in
//     address order, when the DLID's low bit requests adaptive service
//     (nil otherwise, per §4.2). Duplicate ports among the adaptive
//     slots are collapsed (the subnet manager cycle-fills unused
//     slots), but a port equal to the escape port is kept: routing
//     options are (port, queue) pairs, and the adaptive queue of the
//     escape link is a genuinely different option (§4.4).
//
// The interleaved-memory organization means hardware obtains all of
// this in one table access; the simulator returns it from one cached
// decode. The adaptive slice is a capacity-capped view of the table's
// arena, shared across lookups of the same block; the caller must not
// mutate it. It stays stable until the subnet manager re-programs the
// block (Set), after which in-flight holders keep the superseded
// options and fresh lookups see the new ones.
func (t *AdaptiveTable) Lookup(dlid ib.LID) (escape ib.PortID, adaptive []ib.PortID, err error) {
	bi := int(dlid) >> t.lmc
	if bi >= len(t.blocks) {
		return ib.InvalidPort, nil, fmt.Errorf("core: DLID %d unprogrammed", dlid)
	}
	b := &t.blocks[bi]
	if !b.valid {
		t.decode(bi)
	}
	escape = ib.PortID(b.escape)
	if escape == ib.InvalidPort {
		return ib.InvalidPort, nil, fmt.Errorf("core: DLID %d unprogrammed", dlid)
	}
	if t.lmc == 0 || dlid&1 == 0 || b.n == 0 {
		return escape, nil, nil // deterministic service: one option
	}
	end := b.off + uint32(b.n)
	return escape, t.arena[b.off:end:end], nil
}

// decode rebuilds the cached option set of block bi from the linear
// view. New options are appended to the arena as a new region, never
// written over an old one, because a buffered packet's routing state
// may still reference the previous options across a reconfiguration.
// A block whose options did not change keeps its region.
func (t *AdaptiveTable) decode(bi int) {
	block := 1 << t.lmc
	base := ib.LID(bi << t.lmc)
	b := &t.blocks[bi]
	b.escape = int16(t.linear.Get(base))
	var buf [1<<ib.MaxLMC - 1]ib.PortID
	fresh := buf[:0]
	for off := 1; off < block; off++ {
		p := t.linear.Get(base + ib.LID(off))
		if p == ib.InvalidPort || containsPort(fresh, p) {
			continue
		}
		fresh = append(fresh, p)
	}
	if !slices.Equal(t.arena[b.off:b.off+uint32(b.n)], fresh) {
		b.off, b.n = uint32(len(t.arena)), uint8(len(fresh))
		t.arena = append(t.arena, fresh...)
	}
	b.valid = true
}

// containsPort is the fixed-size dedup scan replacing the per-lookup
// map: blocks hold at most 2^LMC-1 options (≤127, typically ≤3), so a
// linear scan beats any hashed structure and allocates nothing.
func containsPort(ports []ib.PortID, p ib.PortID) bool {
	for _, q := range ports {
		if q == p {
			return true
		}
	}
	return false
}
