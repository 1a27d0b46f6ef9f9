package ib

import (
	"testing"
	"unsafe"
)

// TestPacketIsOneCacheLine pins Packet to one 64-byte cache line. A
// saturated run holds one Packet per packet in flight, so the
// struct's size multiplies straight into peak memory.
// Adding a field means first freeing 8 bytes elsewhere in the struct
// (narrowing a field or deriving a value instead of storing it), not
// growing the struct to the next size class.
func TestPacketIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want 64", got)
	}
}
