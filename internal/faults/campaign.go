// Package faults is the deterministic fault-injection subsystem: it
// schedules link and switch failures, repairs and staged
// subnet-manager recoveries on the simulation clock, and runs two
// runtime invariant watchdogs (credit conservation, forward progress)
// that fail a wedged run loudly instead of letting it hang.
//
// A Campaign is a parsed description of what goes wrong and when. It
// comes from a compact spec string (CLI-friendly) or a JSON file, and
// every source of randomness (the rand: directive) is drawn from an
// explicit seed, so a campaign replays byte-identically.
package faults

import (
	"bytes"
	"encoding/json"
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

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case SwitchDown:
		return "switch-down"
	case SwitchUp:
		return "switch-up"
	case Reconfig:
		return "reconfig"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

func parseKind(s string) (Kind, error) {
	switch s {
	case "link-down":
		return LinkDown, nil
	case "link-up":
		return LinkUp, nil
	case "switch-down":
		return SwitchDown, nil
	case "switch-up":
		return SwitchUp, nil
	case "reconfig":
		return Reconfig, nil
	}
	return 0, fmt.Errorf("faults: unknown event kind %q", s)
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
	// take defaults. Watchdog.Fatal defaults to false here — runners
	// that want a loud failure set it.
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

// jsonCampaign is the JSON-file form of a Campaign; all durations are
// simulated nanoseconds.
type jsonCampaign struct {
	Events []struct {
		AtNs   int64  `json:"atNs"`
		Kind   string `json:"kind"`
		A      int    `json:"a"`
		B      int    `json:"b"`
		Switch int    `json:"switch"`
	} `json:"events"`
	RandomFlaps *struct {
		N         int   `json:"n"`
		DownForNs int64 `json:"downForNs"`
		FromNs    int64 `json:"fromNs"`
		ToNs      int64 `json:"toNs"`
	} `json:"randomFlaps"`
	AutoReconfigNs   int64 `json:"autoReconfigNs"`
	SweepDelayNs     int64 `json:"sweepDelayNs"`
	PerSwitchDelayNs int64 `json:"perSwitchDelayNs"`
	Watchdog         *struct {
		SampleEveryNs int64 `json:"sampleEveryNs"`
		HorizonNs     int64 `json:"horizonNs"`
	} `json:"watchdog"`
}

// jsonRule is one row of the campaign-JSON validation table: an
// ordered list of (predicate, error) pairs checked first-match-wins,
// so every rejection carries one canonical message naming the
// offending JSON path. The decoder layer above the table already
// rejects malformed syntax, NaN/Infinity (not JSON), fractional or
// overflowing times, and unknown fields — each with the line:column
// where decoding stopped.
type jsonRule struct {
	name    string
	applies func(*jsonCampaign) bool
	err     func(*jsonCampaign) error
}

// firstEvent returns the index of the first event failing pred, or -1.
func (jc *jsonCampaign) firstEvent(pred func(atNs int64, kind string) bool) int {
	for i, e := range jc.Events {
		if pred(e.AtNs, e.Kind) {
			return i
		}
	}
	return -1
}

var jsonRules = []jsonRule{
	{
		name: "event-kind-known",
		applies: func(jc *jsonCampaign) bool {
			return jc.firstEvent(func(_ int64, k string) bool { _, err := parseKind(k); return err != nil }) >= 0
		},
		err: func(jc *jsonCampaign) error {
			i := jc.firstEvent(func(_ int64, k string) bool { _, err := parseKind(k); return err != nil })
			return fmt.Errorf("faults: campaign JSON: events[%d].kind: unknown event kind %q", i, jc.Events[i].Kind)
		},
	},
	{
		name: "event-time-non-negative",
		applies: func(jc *jsonCampaign) bool {
			return jc.firstEvent(func(at int64, _ string) bool { return at < 0 }) >= 0
		},
		err: func(jc *jsonCampaign) error {
			i := jc.firstEvent(func(at int64, _ string) bool { return at < 0 })
			return fmt.Errorf("faults: campaign JSON: events[%d].atNs = %d is negative", i, jc.Events[i].AtNs)
		},
	},
	{
		name:    "random-flaps-count-positive",
		applies: func(jc *jsonCampaign) bool { return jc.RandomFlaps != nil && jc.RandomFlaps.N <= 0 },
		err: func(jc *jsonCampaign) error {
			return fmt.Errorf("faults: campaign JSON: randomFlaps.n = %d must be positive", jc.RandomFlaps.N)
		},
	},
	{
		name:    "random-flaps-duration-positive",
		applies: func(jc *jsonCampaign) bool { return jc.RandomFlaps != nil && jc.RandomFlaps.DownForNs <= 0 },
		err: func(jc *jsonCampaign) error {
			return fmt.Errorf("faults: campaign JSON: randomFlaps.downForNs = %d must be positive", jc.RandomFlaps.DownForNs)
		},
	},
	{
		name: "random-flaps-window-sane",
		applies: func(jc *jsonCampaign) bool {
			return jc.RandomFlaps != nil && (jc.RandomFlaps.FromNs < 0 || jc.RandomFlaps.ToNs <= jc.RandomFlaps.FromNs)
		},
		err: func(jc *jsonCampaign) error {
			return fmt.Errorf("faults: campaign JSON: randomFlaps window [fromNs=%d, toNs=%d) is empty or negative",
				jc.RandomFlaps.FromNs, jc.RandomFlaps.ToNs)
		},
	},
	{
		name:    "auto-reconfig-non-negative",
		applies: func(jc *jsonCampaign) bool { return jc.AutoReconfigNs < 0 },
		err: func(jc *jsonCampaign) error {
			return fmt.Errorf("faults: campaign JSON: autoReconfigNs = %d is negative", jc.AutoReconfigNs)
		},
	},
	{
		name:    "sweep-delay-non-negative",
		applies: func(jc *jsonCampaign) bool { return jc.SweepDelayNs < 0 },
		err: func(jc *jsonCampaign) error {
			return fmt.Errorf("faults: campaign JSON: sweepDelayNs = %d is negative", jc.SweepDelayNs)
		},
	},
	{
		name:    "per-switch-delay-non-negative",
		applies: func(jc *jsonCampaign) bool { return jc.PerSwitchDelayNs < 0 },
		err: func(jc *jsonCampaign) error {
			return fmt.Errorf("faults: campaign JSON: perSwitchDelayNs = %d is negative", jc.PerSwitchDelayNs)
		},
	},
	{
		name: "watchdog-non-negative",
		applies: func(jc *jsonCampaign) bool {
			return jc.Watchdog != nil && (jc.Watchdog.SampleEveryNs < 0 || jc.Watchdog.HorizonNs < 0)
		},
		err: func(jc *jsonCampaign) error {
			return fmt.Errorf("faults: campaign JSON: watchdog {sampleEveryNs=%d, horizonNs=%d} has a negative field",
				jc.Watchdog.SampleEveryNs, jc.Watchdog.HorizonNs)
		},
	},
	{
		name: "schedules-something",
		applies: func(jc *jsonCampaign) bool {
			return len(jc.Events) == 0 && jc.RandomFlaps == nil
		},
		err: func(jc *jsonCampaign) error {
			return fmt.Errorf("faults: campaign JSON schedules no events")
		},
	},
}

// lineCol converts a byte offset into 1-based line:column for decoder
// error positions.
func lineCol(data []byte, off int64) (line, col int) {
	line, col = 1, 1
	for i := int64(0); i < off && i < int64(len(data)); i++ {
		if data[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// decodeErr wraps a decoder failure with the position where decoding
// stopped. Syntax and type errors carry their own offset; everything
// else (unknown fields, number overflow) uses the decoder's input
// offset, which points just past the offending token.
func decodeErr(data []byte, dec *json.Decoder, err error) error {
	off := dec.InputOffset()
	switch e := err.(type) {
	case *json.SyntaxError:
		off = e.Offset
	case *json.UnmarshalTypeError:
		off = e.Offset
	}
	line, col := lineCol(data, off)
	return fmt.Errorf("faults: bad campaign JSON at line %d col %d: %w", line, col, err)
}

// ParseJSON decodes the JSON-file campaign format strictly: unknown
// fields, non-JSON numbers (NaN/Infinity), fractional or overflowing
// times and trailing garbage are rejected with the position where
// decoding stopped; decoded values then pass the ordered jsonRules
// validation table, whose errors name the offending JSON path. A
// malformed campaign fails loudly here instead of silently zeroing
// fields and simulating the wrong failure schedule.
func ParseJSON(data []byte) (*Campaign, error) {
	var jc jsonCampaign
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jc); err != nil {
		return nil, decodeErr(data, dec, err)
	}
	if dec.More() {
		line, col := lineCol(data, dec.InputOffset())
		return nil, fmt.Errorf("faults: bad campaign JSON at line %d col %d: trailing data after campaign object", line, col)
	}
	for _, r := range jsonRules {
		if r.applies(&jc) {
			return nil, r.err(&jc)
		}
	}
	c := &Campaign{
		AutoReconfig:   sim.Time(jc.AutoReconfigNs),
		SweepDelay:     sim.Time(jc.SweepDelayNs),
		PerSwitchDelay: sim.Time(jc.PerSwitchDelayNs),
	}
	for _, e := range jc.Events {
		k, _ := parseKind(e.Kind) // kind validated by the rules table
		c.Events = append(c.Events, Event{At: sim.Time(e.AtNs), Kind: k, A: e.A, B: e.B, Switch: e.Switch})
	}
	if jc.RandomFlaps != nil {
		c.Random = RandomFlaps{
			N:       jc.RandomFlaps.N,
			DownFor: sim.Time(jc.RandomFlaps.DownForNs),
			From:    sim.Time(jc.RandomFlaps.FromNs),
			To:      sim.Time(jc.RandomFlaps.ToNs),
		}
	}
	if jc.Watchdog != nil {
		c.Watchdog.SampleEvery = sim.Time(jc.Watchdog.SampleEveryNs)
		c.Watchdog.Horizon = sim.Time(jc.Watchdog.HorizonNs)
	}
	return c, nil
}

// Load resolves a -faults CLI argument: "@path" reads a JSON campaign
// file, anything else is parsed as a spec string.
func Load(arg string) (*Campaign, error) {
	if strings.HasPrefix(arg, "@") {
		data, err := os.ReadFile(strings.TrimPrefix(arg, "@"))
		if err != nil {
			return nil, fmt.Errorf("faults: %w", err)
		}
		return ParseJSON(data)
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
