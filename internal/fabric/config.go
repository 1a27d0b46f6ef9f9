// Package fabric is the register-transfer-level model of an IBA
// subnet: switches with one input buffer per port, credit-based
// link-level flow control, virtual cut-through switching, serial links
// with propagation delay, and channel adapters (hosts) that inject and
// sink packets. It realizes both a plain spec-compliant deterministic
// subnet and the paper's enhanced switches (interleaved multi-option
// forwarding tables, adaptive/escape logical queues inside each VL
// buffer, credit-split output selection). The fabric models exactly one
// data VL, as the paper's evaluation does: the mechanism needs no extra
// VLs, because both logical queues live inside a single VL's buffer.
package fabric

import (
	"fmt"

	"ibasim/internal/core"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
)

// Config gathers the switch and link parameters of a simulation. The
// zero value is not valid; start from DefaultConfig.
type Config struct {
	// Split.CMax is C_max: the capacity, in 64-byte credits, of each
	// input port's buffer. Split divides it into the adaptive and
	// escape logical queues, each of which must hold an MTU packet
	// (§4.4); plain deterministic switches use only CMax.
	Split core.CreditSplit

	// Selection configures when/how the output port is chosen (§4.3).
	Selection core.SelectionConfig

	// AdaptiveSwitches enables the paper's switch enhancements. When
	// false the fabric behaves as a stock IBA subnet: one routing
	// option per DLID, a single logical queue per buffer.
	AdaptiveSwitches bool

	// SourceMultipath enables the baseline the paper's introduction
	// dismisses: each destination's LID block holds this many
	// *deterministic* alternative paths and the source picks one per
	// packet at random. Requires plain switches (AdaptiveSwitches
	// false); 0 or 1 disables it.
	SourceMultipath int

	// DeterministicOnly lists switch IDs that stay stock even when
	// AdaptiveSwitches is true — §4.2's mixed subnet: "a given system
	// may have both switches that support adaptive routing and
	// switches that only support deterministic routing". The subnet
	// manager stores the same output port at every table address of
	// these switches.
	DeterministicOnly []int

	// Retry configures the host-side fault-recovery behaviour: a send
	// timeout on the source queue head and a bounded
	// exponential-backoff re-injection of packets the fabric dropped.
	// The zero value disables both (packets dropped by the fabric are
	// lost), preserving the paper's loss-free steady-state model.
	Retry RetryConfig

	// EngineOpts configures the simulation engine's event scheduler
	// (implementation, wheel geometry); NewNetwork passes them to
	// sim.NewEngine.
	EngineOpts []sim.EngineOption

	// Arb selects the crossbar arbiter: ArbWake (the default; "" means
	// wake) drains an event-driven wait-list pending set, ArbScan is
	// the full round-robin rescan kept as the reference the
	// differential tests compare against. Results are bit-identical
	// either way, tamper models and mutation hooks included — see
	// wake.go for the equivalence argument.
	Arb string

	// The MTU, RoutingDelay, PropagationDelay and link rate come from
	// internal/ib's constants; they are fixed by the paper's model.
}

// Arbiter modes for Config.Arb.
const (
	ArbWake = "wake"
	ArbScan = "scan"
)

// DefaultBackoffCap is the documented ceiling on the exponential
// retry backoff when RetryConfig.BackoffMax is left zero: ~1.05 ms of
// simulated time (1<<20 ns). Before this cap existed the doubling grew
// unbounded — a policy with a large retry budget and no explicit max
// could push a re-injection arbitrarily far past the measurement
// window (and, at 60+ attempts, overflow sim.Time). Every backoff
// computation now saturates at EffectiveBackoffCap.
const DefaultBackoffCap sim.Time = 1 << 20

// RetryConfig bounds how hard a source works to get a packet through
// a faulty fabric before declaring it lost.
type RetryConfig struct {
	// MaxRetries is how many times a dropped packet is re-injected at
	// its source before it counts as lost. 0 disables retries.
	MaxRetries int

	// BackoffBase is the delay before the first re-injection; each
	// further attempt doubles it (exponential backoff), capped at
	// BackoffMax — or at DefaultBackoffCap when BackoffMax is zero, so
	// the delay never grows unbounded.
	BackoffBase sim.Time
	BackoffMax  sim.Time

	// SendTimeout drops (and, with MaxRetries > 0, retries) the source
	// queue head after it has waited this long without the link
	// becoming usable — the escape hatch for sources whose uplink or
	// whole switch died. 0 disables the timeout.
	SendTimeout sim.Time
}

// Enabled reports whether any retry machinery is active.
func (r RetryConfig) Enabled() bool { return r.MaxRetries > 0 || r.SendTimeout > 0 }

// EffectiveBackoffCap is the ceiling backoff saturates at: BackoffMax
// when set, DefaultBackoffCap otherwise.
func (r RetryConfig) EffectiveBackoffCap() sim.Time {
	if r.BackoffMax > 0 {
		return r.BackoffMax
	}
	return DefaultBackoffCap
}

// backoff returns the re-injection delay for the given attempt number
// (1-based), saturating at EffectiveBackoffCap.
func (r RetryConfig) backoff(attempt int) sim.Time {
	cap := r.EffectiveBackoffCap()
	d := r.BackoffBase
	if d <= 0 {
		d = 1
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= cap {
			return cap
		}
	}
	if d > cap {
		d = cap
	}
	return d
}

// DefaultRetry returns the fault-campaign retry policy: 8 attempts,
// 1 µs base backoff capped at 64 µs, 100 µs send timeout.
func DefaultRetry() RetryConfig {
	return RetryConfig{MaxRetries: 8, BackoffBase: 1_000, BackoffMax: 64_000, SendTimeout: 100_000}
}

// DefaultConfig returns the paper's evaluation parameters: buffers
// of four MTUs split equally between the adaptive and escape queues
// (two 256 B packets each), arbitration-time status-aware selection,
// enhanced switches.
func DefaultConfig() Config {
	return Config{
		Split:            core.SplitHalf(4 * ib.Credits(ib.MTU)),
		Selection:        core.DefaultSelection(),
		AdaptiveSwitches: true,
		Arb:              ArbWake,
	}
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.Split.CEscape < ib.Credits(ib.MTU) || c.Split.CAdaptiveCap() < ib.Credits(ib.MTU) {
		return fmt.Errorf("fabric: split %+v cannot hold an MTU packet per logical queue", c.Split)
	}
	if c.Retry.MaxRetries < 0 || c.Retry.BackoffBase < 0 || c.Retry.BackoffMax < 0 || c.Retry.SendTimeout < 0 {
		return fmt.Errorf("fabric: negative retry parameter %+v", c.Retry)
	}
	if c.SourceMultipath > 1 && c.AdaptiveSwitches {
		return fmt.Errorf("fabric: source multipath is a plain-switch baseline; disable AdaptiveSwitches")
	}
	// Each path is one of the destination's LIDs; a source-queue entry
	// keeps its offset in seven bits (see srcEntry).
	if c.SourceMultipath > 1<<ib.MaxLMC {
		return fmt.Errorf("fabric: %d source paths exceed the %d LIDs a host can own", c.SourceMultipath, 1<<ib.MaxLMC)
	}
	switch c.Arb {
	case "", ArbWake, ArbScan:
	default:
		return fmt.Errorf("fabric: unknown arbiter %q (want %q or %q)", c.Arb, ArbWake, ArbScan)
	}
	return nil
}
