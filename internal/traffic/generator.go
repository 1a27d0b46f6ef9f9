package traffic

import (
	"fmt"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
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

// OfferedPerSwitchAvg converts the per-host rate to the paper's
// bytes/ns/switch unit: avgHosts is NumHosts/NumSwitches, an integer
// on uniform topologies and fractional on fat-trees, which put hosts
// only on the leaf row.
func (c Config) OfferedPerSwitchAvg(avgHosts float64) float64 {
	return c.LoadBytesPerNsPerHost * avgHosts
}

// Generator drives packet creation on every host of a network until a
// stop time.
type Generator struct {
	cfg       Config
	net       *fabric.Network
	stop      sim.Time
	mean      float64 // mean inter-arrival time, ns
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
	if cfg.PacketSize > ib.MTU {
		return nil, fmt.Errorf("traffic: packet size %d exceeds MTU %d", cfg.PacketSize, ib.MTU)
	}
	return &Generator{cfg: cfg, net: net}, nil
}

// source is one host's packet process: its RNG stream and the time of
// its next generation step. A host's packets are a pure function of
// that stream (see Pattern), so two copies made at the same point step
// through the same packets.
type source struct {
	g   *Generator
	src int      // the host's ID
	at  sim.Time // time of the next step
	rng sim.RNG  // split per host, held by value to keep streams one block
}

// step takes one generation step's draws, in the one order the
// generator draws them: the destination, then the adaptive bit only
// when the pattern sends from src (dst >= 0), then the gap to the
// next step. It returns the step's time and its draws.
func (s *source) step() (at sim.Time, dst int, adaptive bool, gap sim.Time) {
	at = s.at
	dst = s.g.cfg.Pattern.Dest(s.src, &s.rng)
	if dst >= 0 {
		adaptive = s.rng.Bool(s.g.cfg.AdaptiveFraction)
	}
	gap = s.rng.ExpTime(s.g.mean)
	s.at += gap
	return at, dst, adaptive, gap
}

// Next implements fabric.Stream: it steps to the host's next packet.
// The host asks once per generated packet, so the steps it replays are
// the ones the generation event took before the stop time.
func (s *source) Next() (at sim.Time, dst, size int, adaptive bool) {
	for {
		at, dst, adaptive, _ := s.step()
		if dst >= 0 {
			return at, dst, s.g.cfg.PacketSize, adaptive
		}
	}
}

// hostStream is one host's generation process. Binding the host, its
// sources, and the rescheduling closure in one struct lets the
// recurring generation event reuse a single func value instead of
// allocating a new closure per packet.
type hostStream struct {
	host *fabric.Host
	gen  source // the generation event's draws
	// replay is a copy of gen made at Start; the host steps it as its
	// generated packets reach the head of its source queue.
	replay source
	fire   func()
}

// Start schedules generation on every host from the current simulated
// time until stopAt. Each host draws from an independent RNG stream,
// so per-host processes are uncorrelated but reproducible; each host
// gets a replay of its stream as its fabric.Stream.
func (g *Generator) Start(stopAt sim.Time) {
	g.stop = stopAt
	g.mean = float64(g.cfg.PacketSize) / g.cfg.LoadBytesPerNsPerHost
	root := sim.NewRNG(g.cfg.Seed ^ 0x54524146464943)
	now := g.net.Engine.Now()
	// All streams live in one backing array; only the recurring event
	// closure is a per-host allocation.
	g.streams = make([]hostStream, len(g.net.Hosts))
	for i, h := range g.net.Hosts {
		hs := &g.streams[i]
		hs.host = h
		hs.gen = source{g: g, src: h.ID(), rng: *root.Split(uint64(h.ID()) + 1)}
		// Random initial phase avoids all hosts firing in lockstep.
		phase := hs.gen.rng.ExpTime(g.mean)
		hs.gen.at = now + phase
		hs.replay = hs.gen
		h.SetStream(&hs.replay)
		hs.fire = hs.generate
		h.Engine().Schedule(phase, hs.fire)
	}
}

func (hs *hostStream) generate() {
	g := hs.gen.g
	eng := hs.host.Engine()
	if eng.Now() >= g.stop {
		return
	}
	_, dst, adaptive, gap := hs.gen.step()
	if dst >= 0 {
		hs.host.Generate(dst, g.cfg.PacketSize, adaptive)
		g.generated++
	}
	eng.Schedule(gap, hs.fire)
}
