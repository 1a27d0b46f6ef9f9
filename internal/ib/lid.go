package ib

import "fmt"

// LID is an InfiniBand local identifier: the subnet-unique address of
// a channel adapter port, assigned by the subnet manager. IBA encodes
// LIDs in 16 bits and splits them into three ranges: 0x0001–0xBFFF
// are unicast, 0xC000–0xFFFE multicast, and 0xFFFF is the permissive
// LID; LID 0 is reserved.
type LID uint16

// MaxUnicastLID is the highest unicast LID: an address plan hands out
// LIDs up to it and no further.
const MaxUnicastLID LID = 0xBFFF

// MaxLMC is the largest LID Mask Control value the spec allows: a port
// may be assigned up to 2^7 = 128 consecutive LIDs (§4.1 of the paper
// notes this caps the routing options the mechanism can encode).
const MaxLMC = 7

// AddressPlan maps end-node ports (hosts) to LID ranges under a common
// LMC. Host h owns the 2^LMC consecutive LIDs starting at
// (h+1) << LMC; the +1 keeps LID 0 unused, and the shift aligns every
// range so the low LMC bits select the routing option — the alignment
// the paper's interleaved forwarding table relies on.
type AddressPlan struct {
	LMC      uint
	NumHosts int
}

// NewAddressPlan validates the shape and returns the plan. Every LID
// it assigns must be unicast, so MaxLID, ((NumHosts+1) << LMC) - 1,
// may not pass MaxUnicastLID.
func NewAddressPlan(numHosts int, lmc uint) (*AddressPlan, error) {
	if lmc > MaxLMC {
		return nil, fmt.Errorf("ib: LMC %d exceeds spec maximum %d", lmc, MaxLMC)
	}
	if numHosts <= 0 {
		return nil, fmt.Errorf("ib: address plan needs at least one host")
	}
	if top := (uint64(numHosts)+1)<<lmc - 1; top > uint64(MaxUnicastLID) {
		return nil, fmt.Errorf("ib: %d hosts with LMC %d need LIDs up to %#x, past the unicast range 0x0001-0xbfff",
			numHosts, lmc, top)
	}
	return &AddressPlan{LMC: lmc, NumHosts: numHosts}, nil
}

// RangeSize returns the number of LIDs each host owns (2^LMC).
func (p *AddressPlan) RangeSize() int { return 1 << p.LMC }

// BaseLID returns the first (deterministic-routing) LID of a host.
func (p *AddressPlan) BaseLID(host int) LID {
	return LID((host + 1) << p.LMC)
}

// AdaptiveLID returns the LID a source uses to request adaptive
// routing for the host (base + 1, §4.2: the least-significant DLID bit
// enables adaptivity). With LMC 0 there is no adaptive address and the
// base LID is returned.
func (p *AddressPlan) AdaptiveLID(host int) LID {
	if p.LMC == 0 {
		return p.BaseLID(host)
	}
	return p.BaseLID(host) + 1
}

// DLIDFor returns the DLID a source should put in the packet header
// for the destination host, selecting deterministic or adaptive
// service (§4.2).
func (p *AddressPlan) DLIDFor(host int, adaptive bool) LID {
	if adaptive {
		return p.AdaptiveLID(host)
	}
	return p.BaseLID(host)
}

// HostOf decodes which host owns a LID, applying the LMC mask exactly
// as a CA port does when validating that a packet DLID matches its
// assigned LID. The second result is false for LIDs outside every
// host's range (including LID 0).
func (p *AddressPlan) HostOf(lid LID) (int, bool) {
	if lid == 0 {
		return 0, false
	}
	host := int(lid>>p.LMC) - 1
	if host < 0 || host >= p.NumHosts {
		return 0, false
	}
	return host, true
}

// IsAdaptive reports whether a DLID requests adaptive routing: the
// least-significant masked bit is set (§4.2). With LMC 0 adaptivity
// cannot be encoded and the result is always false.
func (p *AddressPlan) IsAdaptive(lid LID) bool {
	if p.LMC == 0 {
		return false
	}
	return lid&1 == 1
}

// MaxLID returns the highest LID the plan assigns; forwarding tables
// must cover indices up to and including it.
func (p *AddressPlan) MaxLID() LID {
	return p.BaseLID(p.NumHosts-1) + LID(p.RangeSize()) - 1
}
