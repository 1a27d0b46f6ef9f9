// Package faults is the deterministic fault-injection subsystem: it
// schedules link and switch failures, repairs and staged
// subnet-manager recoveries on the simulation clock, and runs a
// runtime invariant watchdog (credit conservation, forward progress,
// deadlock) that records each breach in the run's result.
//
// A Campaign is a parsed description of what goes wrong and when. It
// has one grammar, the compact spec Parse reads; Load takes it inline
// or, as "@path", from a file. Each field of the JSON form older
// builds read has its clause: events are down@, up@, swdown@, swup@
// and reconfig@; randomFlaps is rand:N:DUR@T0-T1; autoReconfigNs is
// autoreconfig:GAP; sweepDelayNs and perSwitchDelayNs are sweep:SD:PSD;
// watchdog is watchdog:SE:HZ. Every source of randomness (the rand:
// directive) is drawn from an explicit seed, so a campaign replays
// byte-identically.
package faults

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"ibasim/internal/sim"
)

// Kind enumerates campaign event types.
type Kind uint8

const (
	LinkDown Kind = iota
	LinkUp
	SwitchDown
	SwitchUp
	Reconfig
)

// kindNames spells each Kind, indexed by its value.
var kindNames = [...]string{
	LinkDown:   "link-down",
	LinkUp:     "link-up",
	SwitchDown: "switch-down",
	SwitchUp:   "switch-up",
	Reconfig:   "reconfig",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduled campaign action. A and B name the link ends
// of LinkDown/LinkUp; Switch names the target of SwitchDown/SwitchUp;
// Reconfig uses neither.
type Event struct {
	At     sim.Time
	Kind   Kind
	A, B   int
	Switch int
}

// RandomFlaps asks Apply to synthesize N link flaps (down, then up
// DownFor later) on links and instants drawn uniformly from the fault
// seed within [From, To). N == 0 disables it.
type RandomFlaps struct {
	N       int
	DownFor sim.Time
	From    sim.Time
	To      sim.Time
}

// Campaign is a full fault schedule plus the recovery-model and
// watchdog parameters it runs under.
type Campaign struct {
	Events []Event

	Random RandomFlaps

	// AutoReconfig, when > 0, schedules a staged reconfiguration this
	// long after every fault and repair event (the SM's sweep period
	// reacting to a trap). Explicit reconfig events compose with it;
	// coincident reconfigs are deduplicated.
	AutoReconfig sim.Time

	// SweepDelay and PerSwitchDelay time the staged recovery (see
	// subnet.StagedOptions); zero values take the subnet defaults.
	SweepDelay     sim.Time
	PerSwitchDelay sim.Time

	// Watchdog configures the runtime invariant checkers; zero fields
	// take defaults.
	Watchdog WatchdogConfig
}

// Parse reads the compact campaign spec grammar: semicolon-separated
// directives, times in simulated nanoseconds.
//
//	down@T:A-B         fail link A-B at T
//	up@T:A-B           repair link A-B at T
//	flap@T:A-B:DUR     fail at T, repair at T+DUR
//	swdown@T:S         fail switch S whole at T
//	swup@T:S           repair switch S at T
//	reconfig@T         staged SM reconfiguration starting at T
//	rand:N:DUR@T0-T1   N seeded random link flaps of DUR within [T0,T1)
//	autoreconfig:GAP   staged reconfig GAP after every fault/repair
//	sweep:SD:PSD       staged timing: sweep delay SD, per-switch PSD
//	watchdog:SE:HZ     watchdog sample period SE, progress horizon HZ
//
// Example: "down@20000:0-3;up@120000:0-3;autoreconfig:2000"
func Parse(spec string) (*Campaign, error) {
	c := &Campaign{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if err := c.parseDirective(part); err != nil {
			return nil, err
		}
	}
	if len(c.Events) == 0 && c.Random.N == 0 {
		return nil, fmt.Errorf("faults: campaign %q schedules no events", spec)
	}
	return c, nil
}

func (c *Campaign) parseDirective(part string) error {
	head, tail, hasAt := strings.Cut(part, "@")
	fields := strings.Split(head, ":")
	op := fields[0]
	bad := func() error { return fmt.Errorf("faults: bad directive %q", part) }
	switch op {
	case "down", "up", "flap", "swdown", "swup", "reconfig":
		if !hasAt || len(fields) != 1 {
			return bad()
		}
		args := strings.Split(tail, ":")
		t, err := parseTime(args[0])
		if err != nil {
			return bad()
		}
		switch op {
		case "reconfig":
			if len(args) != 1 {
				return bad()
			}
			c.Events = append(c.Events, Event{At: t, Kind: Reconfig})
		case "swdown", "swup":
			if len(args) != 2 {
				return bad()
			}
			s, err := strconv.Atoi(args[1])
			if err != nil {
				return bad()
			}
			k := SwitchDown
			if op == "swup" {
				k = SwitchUp
			}
			c.Events = append(c.Events, Event{At: t, Kind: k, Switch: s})
		default: // down, up, flap
			if (op == "flap" && len(args) != 3) || (op != "flap" && len(args) != 2) {
				return bad()
			}
			a, b, err := parseLink(args[1])
			if err != nil {
				return bad()
			}
			switch op {
			case "down":
				c.Events = append(c.Events, Event{At: t, Kind: LinkDown, A: a, B: b})
			case "up":
				c.Events = append(c.Events, Event{At: t, Kind: LinkUp, A: a, B: b})
			case "flap":
				dur, err := parseTime(args[2])
				if err != nil || dur <= 0 {
					return bad()
				}
				c.Events = append(c.Events,
					Event{At: t, Kind: LinkDown, A: a, B: b},
					Event{At: t + dur, Kind: LinkUp, A: a, B: b})
			}
		}
	case "rand":
		if !hasAt || len(fields) != 3 {
			return bad()
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n <= 0 {
			return bad()
		}
		dur, err := parseTime(fields[2])
		if err != nil || dur <= 0 {
			return bad()
		}
		lo, hi, ok := strings.Cut(tail, "-")
		if !ok {
			return bad()
		}
		t0, err := parseTime(lo)
		if err != nil {
			return bad()
		}
		t1, err := parseTime(hi)
		if err != nil || t1 <= t0 {
			return bad()
		}
		c.Random = RandomFlaps{N: n, DownFor: dur, From: t0, To: t1}
	case "autoreconfig":
		if hasAt || len(fields) != 2 {
			return bad()
		}
		gap, err := parseTime(fields[1])
		if err != nil || gap <= 0 {
			return bad()
		}
		c.AutoReconfig = gap
	case "sweep":
		if hasAt || len(fields) != 3 {
			return bad()
		}
		sd, err1 := parseTime(fields[1])
		psd, err2 := parseTime(fields[2])
		if err1 != nil || err2 != nil || sd < 0 || psd < 0 {
			return bad()
		}
		c.SweepDelay, c.PerSwitchDelay = sd, psd
	case "watchdog":
		if hasAt || len(fields) != 3 {
			return bad()
		}
		se, err1 := parseTime(fields[1])
		hz, err2 := parseTime(fields[2])
		if err1 != nil || err2 != nil || se <= 0 || hz <= 0 {
			return bad()
		}
		c.Watchdog.SampleEvery, c.Watchdog.Horizon = se, hz
	default:
		return bad()
	}
	return nil
}

func parseTime(s string) (sim.Time, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("faults: bad time %q", s)
	}
	return sim.Time(v), nil
}

func parseLink(s string) (int, int, error) {
	lo, hi, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("faults: bad link %q", s)
	}
	a, err1 := strconv.Atoi(lo)
	b, err2 := strconv.Atoi(hi)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("faults: bad link %q", s)
	}
	return a, b, nil
}

// Load resolves a -faults CLI argument: "@path" reads a campaign file
// written in Parse's grammar, anything else is parsed as a spec
// string. Whitespace and newlines around directives are ignored, so a
// file may put one directive on each line, each ended by ';'.
func Load(arg string) (*Campaign, error) {
	if path, ok := strings.CutPrefix(arg, "@"); ok {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("faults: %w", err)
		}
		arg = string(data)
	}
	return Parse(arg)
}

// expand returns the campaign's full, sorted event list: explicit
// events, seeded random flaps, and auto-reconfig follow-ups. The sort
// is stable on (time, original order), so equal-time events fire in
// spec order — expansion is fully deterministic for a given seed.
func (c *Campaign) expand(numLinks func() int, linkAt func(i int) (a, b int), seed uint64) []Event {
	events := append([]Event(nil), c.Events...)
	if c.Random.N > 0 {
		rng := sim.NewRNG(seed ^ 0x4641554C5453) // package tag
		span := int(c.Random.To - c.Random.From)
		for i := 0; i < c.Random.N; i++ {
			a, b := linkAt(rng.Intn(numLinks()))
			t := c.Random.From + sim.Time(rng.Intn(span))
			events = append(events,
				Event{At: t, Kind: LinkDown, A: a, B: b},
				Event{At: t + c.Random.DownFor, Kind: LinkUp, A: a, B: b})
		}
	}
	if c.AutoReconfig > 0 {
		seen := map[sim.Time]bool{}
		for _, e := range events {
			if e.Kind == Reconfig {
				seen[e.At] = true
			}
		}
		var auto []Event
		for _, e := range events {
			if e.Kind == Reconfig {
				continue
			}
			at := e.At + c.AutoReconfig
			if !seen[at] {
				seen[at] = true
				auto = append(auto, Event{At: at, Kind: Reconfig})
			}
		}
		events = append(events, auto...)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}
