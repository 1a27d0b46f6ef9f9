package traffic

import (
	"fmt"

	"ibasim/internal/fabric"
	"ibasim/internal/sim"
)

// Config describes one workload.
type Config struct {
	Pattern    Pattern
	PacketSize int // bytes; the paper uses 32 and 256

	// AdaptiveFraction is the share of packets marked for adaptive
	// routing (the paper sweeps 0%..100%). Deterministic packets use
	// the destination's base LID, adaptive ones base+1.
	AdaptiveFraction float64

	// LoadBytesPerNsPerHost is each host's offered injection rate.
	// Packet inter-arrival times are exponential with mean
	// PacketSize / rate.
	LoadBytesPerNsPerHost float64

	Seed uint64
}

// Validate checks the workload shape.
func (c Config) Validate() error {
	if c.Pattern == nil {
		return fmt.Errorf("traffic: nil pattern")
	}
	if c.PacketSize <= 0 {
		return fmt.Errorf("traffic: packet size %d", c.PacketSize)
	}
	if c.AdaptiveFraction < 0 || c.AdaptiveFraction > 1 {
		return fmt.Errorf("traffic: adaptive fraction %v out of [0,1]", c.AdaptiveFraction)
	}
	if c.LoadBytesPerNsPerHost <= 0 {
		return fmt.Errorf("traffic: load %v", c.LoadBytesPerNsPerHost)
	}
	return nil
}

// OfferedPerSwitch converts the per-host rate to the paper's
// bytes/ns/switch unit.
func (c Config) OfferedPerSwitch(hostsPerSwitch int) float64 {
	return c.LoadBytesPerNsPerHost * float64(hostsPerSwitch)
}

// OfferedPerSwitchAvg is OfferedPerSwitch for non-uniform host
// attachment: avgHosts is NumHosts/NumSwitches (fat-trees put hosts
// only on the leaf row, so the average is fractional). For uniform
// topologies the average is the exact integer and the result is
// bit-identical to OfferedPerSwitch.
func (c Config) OfferedPerSwitchAvg(avgHosts float64) float64 {
	return c.LoadBytesPerNsPerHost * avgHosts
}

// Generator drives packet creation on every host of a network until a
// stop time.
type Generator struct {
	cfg       Config
	net       *fabric.Network
	stop      sim.Time
	streams   []hostStream
	generated uint64
}

// Generated returns the number of packets handed to source queues.
func (g *Generator) Generated() uint64 { return g.generated }

// NewGenerator validates the config and binds it to a network.
func NewGenerator(net *fabric.Network, cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// A packet waits in its source queue as an entry with a 16-bit
	// size; NewNetwork caps the MTU to fit, so this check covers it.
	if cfg.PacketSize > net.Cfg.MTU {
		return nil, fmt.Errorf("traffic: packet size %d exceeds MTU %d", cfg.PacketSize, net.Cfg.MTU)
	}
	return &Generator{cfg: cfg, net: net}, nil
}

// hostStream is one host's generation process. Binding the host, its
// RNG stream, and the rescheduling closure in one struct lets the
// recurring generation event reuse a single func value instead of
// allocating a new closure per packet.
type hostStream struct {
	g    *Generator
	host *fabric.Host
	rng  sim.RNG // split per host, held by value to keep streams one block
	mean float64
	fire func()
}

// Start schedules generation on every host from the current simulated
// time until stopAt. Each host draws from an independent RNG stream,
// so per-host processes are uncorrelated but reproducible.
func (g *Generator) Start(stopAt sim.Time) {
	g.stop = stopAt
	mean := float64(g.cfg.PacketSize) / g.cfg.LoadBytesPerNsPerHost
	root := sim.NewRNG(g.cfg.Seed ^ 0x54524146464943)
	// All streams live in one backing array; only the recurring event
	// closure is a per-host allocation.
	g.streams = make([]hostStream, len(g.net.Hosts))
	for i, h := range g.net.Hosts {
		hs := &g.streams[i]
		hs.g, hs.host, hs.rng, hs.mean = g, h, *root.Split(uint64(h.ID()) + 1), mean
		hs.fire = hs.generate
		// Random initial phase avoids all hosts firing in lockstep.
		h.Engine().Schedule(hs.rng.ExpTime(mean), hs.fire)
	}
}

func (hs *hostStream) generate() {
	g := hs.g
	eng := hs.host.Engine()
	if eng.Now() >= g.stop {
		return
	}
	if dst := g.cfg.Pattern.Dest(hs.host.ID(), &hs.rng); dst >= 0 {
		adaptive := hs.rng.Bool(g.cfg.AdaptiveFraction)
		hs.host.Generate(dst, g.cfg.PacketSize, adaptive)
		g.generated++
	}
	eng.Schedule(hs.rng.ExpTime(hs.mean), hs.fire)
}
