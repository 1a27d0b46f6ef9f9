package traffic

import (
	"math"
	"testing"

	"ibasim/internal/sim"
)

func TestUniformNeverSelf(t *testing.T) {
	u := Uniform{NumHosts: 16}
	rng := sim.NewRNG(1)
	for src := 0; src < 16; src++ {
		for i := 0; i < 500; i++ {
			d := u.Dest(src, rng)
			if d == src || d < 0 || d >= 16 {
				t.Fatalf("Dest(%d) = %d", src, d)
			}
		}
	}
}

func TestUniformCoversAllDestinations(t *testing.T) {
	u := Uniform{NumHosts: 8}
	rng := sim.NewRNG(2)
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		seen[u.Dest(0, rng)] = true
	}
	if len(seen) != 7 {
		t.Fatalf("uniform from host 0 reached %d destinations, want 7", len(seen))
	}
}

func TestUniformSingleHost(t *testing.T) {
	u := Uniform{NumHosts: 1}
	if d := u.Dest(0, sim.NewRNG(1)); d != -1 {
		t.Fatalf("Dest = %d, want -1", d)
	}
}

func TestBitReversalPermutation(t *testing.T) {
	b, err := NewBitReversal(32)
	if err != nil {
		t.Fatal(err)
	}
	// 5-bit reversal: 1 (00001) -> 16 (10000), 3 (00011) -> 24 (11000).
	if d := b.Dest(1, nil); d != 16 {
		t.Fatalf("Dest(1) = %d, want 16", d)
	}
	if d := b.Dest(3, nil); d != 24 {
		t.Fatalf("Dest(3) = %d, want 24", d)
	}
	// Fixed points generate nothing: 0 reverses to 0.
	if d := b.Dest(0, nil); d != -1 {
		t.Fatalf("Dest(0) = %d, want -1", d)
	}
}

func TestBitReversalIsInvolution(t *testing.T) {
	b, err := NewBitReversal(64)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 64; src++ {
		d := b.Dest(src, nil)
		if d == -1 {
			continue
		}
		if back := b.Dest(d, nil); back != src {
			t.Fatalf("reversal not involutive: %d -> %d -> %d", src, d, back)
		}
	}
}

func TestBitReversalRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, 1, 12, 100} {
		if _, err := NewBitReversal(n); err == nil {
			t.Fatalf("NumHosts %d accepted", n)
		}
	}
}

func TestHotSpotFraction(t *testing.T) {
	rng := sim.NewRNG(5)
	h, err := NewHotSpot(64, 0.20, rng)
	if err != nil {
		t.Fatal(err)
	}
	hits, total := 0, 50000
	src := (h.Host + 1) % 64
	for i := 0; i < total; i++ {
		if h.Dest(src, rng) == h.Host {
			hits++
		}
	}
	got := float64(hits) / float64(total)
	// 20% direct + ~1/63 of the uniform remainder also lands there.
	want := 0.20 + 0.80/63
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("hot-spot rate %.3f, want ~%.3f", got, want)
	}
}

func TestHotSpotValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := NewHotSpot(1, 0.1, rng); err == nil {
		t.Fatal("single host accepted")
	}
	if _, err := NewHotSpot(8, 1.5, rng); err == nil {
		t.Fatal("fraction 1.5 accepted")
	}
	if _, err := NewHotSpot(8, math.NaN(), rng); err == nil {
		t.Fatal("fraction NaN accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Pattern: Uniform{NumHosts: 4}, PacketSize: 32, AdaptiveFraction: 0.5, LoadBytesPerNsPerHost: 0.01}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{PacketSize: 32, LoadBytesPerNsPerHost: 0.01},
		{Pattern: Uniform{NumHosts: 4}, PacketSize: 0, LoadBytesPerNsPerHost: 0.01},
		{Pattern: Uniform{NumHosts: 4}, PacketSize: 32, AdaptiveFraction: -0.1, LoadBytesPerNsPerHost: 0.01},
		{Pattern: Uniform{NumHosts: 4}, PacketSize: 32, LoadBytesPerNsPerHost: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestOfferedPerSwitch(t *testing.T) {
	c := Config{LoadBytesPerNsPerHost: 0.01}
	if got := c.OfferedPerSwitchAvg(4); math.Abs(got-0.04) > 1e-12 {
		t.Fatalf("OfferedPerSwitchAvg(4) = %v, want 0.04", got)
	}
}
