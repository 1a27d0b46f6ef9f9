package experiments

import (
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
	"ibasim/internal/traffic"
)

// genFields are the fields a generated packet takes at generation and
// keeps for its whole life. A packet waits in its source queue as a
// bare ID and is rebuilt from its host's traffic stream when it
// reaches the head (fabric.Stream), so these are the fields the replay
// must reproduce.
type genFields struct {
	createdAt      sim.Time
	src, dst, size int32
	dlid           ib.LID
	adaptive       bool
}

func fieldsOf(p *ib.Packet) genFields {
	return genFields{p.CreatedAt, p.Src, p.Dst, p.Size, p.DLID, p.Adaptive}
}

// TestSourceReplayMatchesGeneration records every generated packet
// through OnCreated and requires every packet seen after it left its
// source queue (routed by a switch, dropped or delivered) to carry the
// recorded ID, creation time, source, destination, size, DLID and
// adaptive bit. The fixtures cover uniform, bit-reversal (whose
// fixed-point hosts generate nothing) and saturated hot-spot traffic,
// adaptive fractions 0, 0.5 and 1, two source-selected paths (a DLID
// offset drawn on the network RNG at generation) and a fault campaign
// whose send-timeout retries put prebuilt entries between fresh ones.
func TestSourceReplayMatchesGeneration(t *testing.T) {
	topo := diffTopo(t)
	withFrac := func(spec RunSpec, frac float64) RunSpec {
		spec.Traffic.AdaptiveFraction = frac
		spec.Traffic.LoadBytesPerNsPerHost = 0.1 // queues build: replays lag generation
		return spec
	}
	bitrev, err := traffic.NewBitReversal(topo.NumHosts())
	if err != nil {
		t.Fatal(err)
	}
	bitrevSpec := withFrac(diffSpec(topo), 0.5)
	bitrevSpec.Traffic.Pattern = bitrev
	fixtures := []struct {
		name    string
		spec    RunSpec
		retries bool // the run must re-inject dropped packets
	}{
		{"uniform/adaptive-0", withFrac(diffSpec(topo), 0), false},
		{"uniform/adaptive-0.5", withFrac(diffSpec(topo), 0.5), false},
		{"uniform/adaptive-1", withFrac(diffSpec(topo), 1), false},
		{"bit-reversal/adaptive-0.5", bitrevSpec, false},
		{"hot-spot/storm", diffStormSpec(t, topo), false},
		{"source-multipath-2", withFrac(diffMultipathSpec(topo), 0.5), false},
		// The send timeout drops queue heads, and their retries
		// re-enter behind fresh entries.
		{"faults/hot-spot", diffRetrySpec(t, topo), true},
	}
	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) {
			born := map[uint64]genFields{}
			checked, bad := map[uint64]bool{}, map[uint64]bool{}
			behind := 0
			see := func(p *ib.Packet, how string) {
				want, ok := born[p.ID]
				switch {
				case !ok:
					t.Errorf("%s pkt#%d, which OnCreated never saw", how, p.ID)
				case fieldsOf(p) != want && !bad[p.ID]:
					if bad[p.ID] = true; len(bad) <= 3 {
						t.Errorf("%s pkt#%d with %+v, generated as %+v", how, p.ID, fieldsOf(p), want)
					}
				}
				checked[p.ID] = true
			}
			res, err := RunObserved(f.spec, func(net *fabric.Network) {
				prevCreated, prevHop := net.OnCreated, net.OnHop
				prevDropped, prevDelivered := net.OnDropped, net.OnDelivered
				net.OnCreated = func(p *ib.Packet) {
					if prevCreated != nil {
						prevCreated(p)
					}
					born[p.ID] = fieldsOf(p)
					if net.Hosts[p.Src].QueueLen() > 1 {
						behind++ // replayed later, when it reaches the head
					}
				}
				net.OnHop = func(p *ib.Packet, sw int, out ib.PortID, adaptive bool) {
					if prevHop != nil {
						prevHop(p, sw, out, adaptive)
					}
					see(p, "routed")
				}
				net.OnDropped = func(p *ib.Packet, reason fabric.DropReason) {
					if prevDropped != nil {
						prevDropped(p, reason)
					}
					see(p, "dropped")
				}
				net.OnDelivered = func(p *ib.Packet) {
					if prevDelivered != nil {
						prevDelivered(p)
					}
					see(p, "delivered")
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(bad) > 0 {
				t.Fatalf("%d of %d packets left their source queue unlike they were generated", len(bad), len(checked))
			}
			if len(checked) < 1000 || behind < 100 {
				t.Fatalf("%d packets seen leaving, %d generated behind another: want at least 1000 and 100", len(checked), behind)
			}
			if f.retries && res.Retry.Retries == 0 {
				t.Fatal("the fault campaign re-injected no packet")
			}
			t.Logf("%d packets generated (%d behind another), %d seen leaving their source queue, %d retries",
				len(born), behind, len(checked), res.Retry.Retries)
		})
	}
}
