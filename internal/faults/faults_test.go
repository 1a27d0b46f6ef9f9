package faults_test

import (
	"reflect"
	"strings"
	"testing"

	"ibasim/internal/experiments"
	"ibasim/internal/fabric"
	"ibasim/internal/faults"
	"ibasim/internal/ib"
	"ibasim/internal/subnet"
	"ibasim/internal/topology"
	"ibasim/internal/traffic"
)

func irregularTopo(t testing.TB, n, k int, seed uint64) *topology.Topology {
	t.Helper()
	topo, err := topology.GenerateIrregular(topology.IrregularSpec{
		NumSwitches: n, HostsPerSwitch: 4, InterSwitch: k, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func campaignSpec(t testing.TB, topo *topology.Topology, mr int, camp *faults.Campaign, faultSeed uint64) experiments.RunSpec {
	t.Helper()
	cfg := fabric.DefaultConfig()
	cfg.AdaptiveSwitches = true
	return experiments.RunSpec{
		Topo:    topo,
		LMC:     1,
		MR:      mr,
		Fabric:  cfg,
		Traffic: traffic.Config{Pattern: traffic.Uniform{NumHosts: topo.NumHosts()}, PacketSize: 32, AdaptiveFraction: 1, LoadBytesPerNsPerHost: 0.02, Seed: 1},
		Warmup:  30_000, Measure: 250_000, DrainGrace: 80_000,
		Seed:      1,
		Faults:    camp,
		FaultSeed: faultSeed,
	}
}

func TestParseSpec(t *testing.T) {
	c, err := faults.Parse("down@20000:0-3; up@120000:0-3; flap@5000:1-2:300; swdown@7000:4; swup@8000:4; reconfig@9000; rand:2:1500@10000-20000; autoreconfig:2000; sweep:4000:500; watchdog:3000:90000")
	if err != nil {
		t.Fatal(err)
	}
	want := []faults.Event{
		{At: 20_000, Kind: faults.LinkDown, A: 0, B: 3},
		{At: 120_000, Kind: faults.LinkUp, A: 0, B: 3},
		{At: 5_000, Kind: faults.LinkDown, A: 1, B: 2},
		{At: 5_300, Kind: faults.LinkUp, A: 1, B: 2},
		{At: 7_000, Kind: faults.SwitchDown, Switch: 4},
		{At: 8_000, Kind: faults.SwitchUp, Switch: 4},
		{At: 9_000, Kind: faults.Reconfig},
	}
	if !reflect.DeepEqual(c.Events, want) {
		t.Fatalf("events = %+v, want %+v", c.Events, want)
	}
	if c.Random != (faults.RandomFlaps{N: 2, DownFor: 1_500, From: 10_000, To: 20_000}) {
		t.Fatalf("random = %+v", c.Random)
	}
	if c.AutoReconfig != 2_000 || c.SweepDelay != 4_000 || c.PerSwitchDelay != 500 {
		t.Fatalf("recovery params = %d/%d/%d", c.AutoReconfig, c.SweepDelay, c.PerSwitchDelay)
	}
	if c.Watchdog.SampleEvery != 3_000 || c.Watchdog.Horizon != 90_000 {
		t.Fatalf("watchdog = %+v", c.Watchdog)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",                      // no events
		"autoreconfig:2000",     // recovery params only, no events
		"down@20000",            // missing link
		"down@x:0-1",            // bad time
		"flap@100:0-1",          // flap needs a duration
		"flap@100:0-1:0",        // zero duration
		"swdown@100",            // missing switch
		"rand:3:500@9000",       // missing range end
		"rand:0:500@1000-2000",  // zero count
		"watchdog:0:100",        // zero sample period
		"teleport@100:0-1",      // unknown op
		"down@-5:0-1",           // negative time
		"reconfig@100:7",        // reconfig takes no operand
		"sweep:100",             // missing per-switch delay
		"rand:2:1500@9000-9000", // empty window
		"up@100:0-1;durp@5:0-1", // trailing bad directive
	}
	for _, spec := range bad {
		if _, err := faults.Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestParseJSON(t *testing.T) {
	data := []byte(`{
		"events": [
			{"atNs": 20000, "kind": "link-down", "a": 0, "b": 3},
			{"atNs": 50000, "kind": "switch-down", "switch": 2},
			{"atNs": 90000, "kind": "reconfig"}
		],
		"randomFlaps": {"n": 3, "downForNs": 1500, "fromNs": 1000, "toNs": 8000},
		"autoReconfigNs": 2500,
		"sweepDelayNs": 4000,
		"perSwitchDelayNs": 500,
		"watchdog": {"sampleEveryNs": 2000, "horizonNs": 80000}
	}`)
	c, err := faults.ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Events) != 3 || c.Events[1].Kind != faults.SwitchDown || c.Events[1].Switch != 2 {
		t.Fatalf("events = %+v", c.Events)
	}
	if c.Random.N != 3 || c.AutoReconfig != 2_500 || c.Watchdog.Horizon != 80_000 {
		t.Fatalf("campaign = %+v", c)
	}
	if _, err := faults.ParseJSON([]byte(`{"events":[{"atNs":1,"kind":"melt"}]}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := faults.ParseJSON([]byte(`{}`)); err == nil {
		t.Fatal("empty campaign accepted")
	}
}

// TestParseJSONStrict pins the hardened loader: unknown fields,
// non-JSON numbers, fractional times and out-of-range values are
// rejected with positional messages instead of being silently zeroed
// or truncated, by an ordered first-match-wins rule table.
func TestParseJSONStrict(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string // required error substring
	}{
		{"unknown-top-level-field",
			`{"events":[{"atNs":1,"kind":"reconfig"}],"autoReconfgNs":100}`,
			`unknown field "autoReconfgNs"`},
		{"unknown-event-field",
			`{"events":[{"atNs":1,"kind":"reconfig","swich":2}]}`,
			`unknown field "swich"`},
		{"nan-time",
			`{"events":[{"atNs":NaN,"kind":"reconfig"}]}`,
			"line 1 col"},
		{"fractional-time",
			`{"events":[{"atNs":1.5,"kind":"reconfig"}]}`,
			"line 1 col"},
		{"overflow-time",
			`{"events":[{"atNs":1e400,"kind":"reconfig"}]}`,
			"line 1 col"},
		{"trailing-garbage",
			`{"events":[{"atNs":1,"kind":"reconfig"}]} true`,
			"trailing data"},
		{"negative-event-time",
			`{"events":[{"atNs":5,"kind":"reconfig"},{"atNs":-3,"kind":"reconfig"}]}`,
			"events[1].atNs = -3 is negative"},
		{"unknown-kind-positional",
			`{"events":[{"atNs":5,"kind":"reconfig"},{"atNs":6,"kind":"melt"}]}`,
			`events[1].kind: unknown event kind "melt"`},
		{"negative-auto-reconfig",
			`{"events":[{"atNs":1,"kind":"reconfig"}],"autoReconfigNs":-1}`,
			"autoReconfigNs = -1 is negative"},
		{"negative-sweep-delay",
			`{"events":[{"atNs":1,"kind":"reconfig"}],"sweepDelayNs":-7}`,
			"sweepDelayNs = -7 is negative"},
		{"negative-watchdog",
			`{"events":[{"atNs":1,"kind":"reconfig"}],"watchdog":{"sampleEveryNs":-2,"horizonNs":10}}`,
			"watchdog {sampleEveryNs=-2, horizonNs=10} has a negative field"},
		{"zero-flap-count",
			`{"randomFlaps":{"n":0,"downForNs":10,"fromNs":0,"toNs":100}}`,
			"randomFlaps.n = 0 must be positive"},
		{"zero-flap-duration",
			`{"randomFlaps":{"n":2,"downForNs":0,"fromNs":0,"toNs":100}}`,
			"randomFlaps.downForNs = 0 must be positive"},
		{"empty-flap-window",
			`{"randomFlaps":{"n":2,"downForNs":10,"fromNs":100,"toNs":100}}`,
			"randomFlaps window [fromNs=100, toNs=100) is empty or negative"},
		{"negative-flap-window",
			`{"randomFlaps":{"n":2,"downForNs":10,"fromNs":-5,"toNs":100}}`,
			"randomFlaps window [fromNs=-5, toNs=100) is empty or negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := faults.ParseJSON([]byte(tc.data))
			if err == nil {
				t.Fatalf("ParseJSON(%s) accepted", tc.data)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseJSON(%s) = %v, want error containing %q", tc.data, err, tc.want)
			}
		})
	}

	// Positional reporting: the error for a second-line defect names
	// line 2.
	multi := "{\n\"events\": [{\"atNs\": 1.5, \"kind\": \"reconfig\"}]\n}"
	if _, err := faults.ParseJSON([]byte(multi)); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("multi-line positional error = %v, want line 2", err)
	}
}

// TestCampaignDegradedModeRerunsByteIdentical is the ISSUE's
// acceptance campaign: seeded random flaps plus a switch outage longer
// than the send timeout. Two runs must agree exactly; the run must see
// drops, retries and a finite recovery latency with a clean watchdog.
func TestCampaignDegradedModeRerunsByteIdentical(t *testing.T) {
	topo := irregularTopo(t, 16, 4, 42)
	spec := "rand:3:20000@40000-120000; swdown@50000:3; swup@200000:3; reconfig@210000; watchdog:5000:300000"
	run := func() experiments.RunResult {
		camp, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := experiments.Run(campaignSpec(t, topo, 2, camp, 7))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("seeded campaign not reproducible:\nfirst  %+v\nsecond %+v", first, second)
	}
	d := first.Degraded
	if d.FaultsInjected == 0 || d.Repairs == 0 || d.Reconfigs == 0 {
		t.Fatalf("campaign did not execute: %+v", d)
	}
	if d.Dropped() == 0 || d.Retries == 0 {
		t.Fatalf("expected drops and retries under a switch outage, got %+v", d)
	}
	if d.RecoveryLatencyNs < 0 {
		t.Fatalf("recovery latency never observed: %+v", d)
	}
	if d.WatchdogViolations != 0 {
		t.Fatalf("watchdog violations: %d (%s)", d.WatchdogViolations, d.FirstViolation)
	}
	if d.WatchdogSamples == 0 {
		t.Fatal("watchdog never sampled")
	}
}

// TestCampaignSmokeCI is the CI smoke campaign: a short seeded flap
// storm with auto-reconfiguration on a 16-switch irregular topology.
// It must replay byte-identically and keep every invariant clean.
// scripts/ci.sh runs exactly this test under -race.
func TestCampaignSmokeCI(t *testing.T) {
	topo := irregularTopo(t, 16, 4, 42)
	run := func() experiments.RunResult {
		camp, err := faults.Parse("rand:4:15000@40000-150000; autoreconfig:8000")
		if err != nil {
			t.Fatal(err)
		}
		spec := campaignSpec(t, topo, 2, camp, 11)
		spec.Measure = 150_000
		res, err := experiments.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("flap campaign not reproducible:\nfirst  %+v\nsecond %+v", first, second)
	}
	d := first.Degraded
	if d.FaultsInjected != 4 || d.Repairs != 4 {
		t.Fatalf("expected 4 flaps, got %+v", d)
	}
	if d.Reconfigs == 0 {
		t.Fatalf("auto-reconfig never completed: %+v", d)
	}
	if d.WatchdogViolations != 0 {
		t.Fatalf("watchdog violations: %d (%s)", d.WatchdogViolations, d.FirstViolation)
	}
	if first.PacketsMeasured == 0 {
		t.Fatal("no traffic measured")
	}
}

// TestDeadlockFailsLoudly wedges a packet behind a dead link with
// retries disabled: the event queue drains with the packet still in
// flight, and the watchdog must flag a deadlock instead of letting the
// run end silently.
func TestDeadlockFailsLoudly(t *testing.T) {
	topo, err := topology.Line(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ib.NewAddressPlan(topo.NumHosts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := fabric.NewNetwork(topo, plan, fabric.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := subnet.Configure(net, subnet.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkDown(0, 1); err != nil {
		t.Fatal(err)
	}
	dog := faults.NewWatchdog(net, faults.WatchdogConfig{SampleEvery: 1_000, Horizon: 50_000})
	dog.Start()
	net.Hosts[0].Inject(net.NewPacket(0, 4, 32, false)) // must cross the dead link
	net.Engine.Run(1_000_000)

	if net.InFlight() == 0 {
		t.Fatal("packet escaped the wedge; test topology broken")
	}
	vs := dog.Violations()
	if len(vs) == 0 {
		t.Fatal("watchdog saw no violation in a deadlocked run")
	}
	if vs[0].Kind != "deadlock" {
		t.Fatalf("violation kind = %q (%s), want deadlock", vs[0].Kind, vs[0].Detail)
	}
	if vs[0].At >= 50_000 {
		t.Fatalf("deadlock flagged at t=%d, after the horizon", vs[0].At)
	}
}

// TestFatalWatchdogFailsRunLoudly: with Watchdog.Fatal set, an
// unrecovered switch outage must turn into a returned error from the
// runner (the recovered panic), not a hang or a silent result.
func TestFatalWatchdogFailsRunLoudly(t *testing.T) {
	topo := irregularTopo(t, 16, 4, 42)
	camp, err := faults.Parse("swdown@40000:3")
	if err != nil {
		t.Fatal(err)
	}
	camp.Watchdog.Fatal = true
	_, err = experiments.Run(campaignSpec(t, topo, 2, camp, 1))
	if err == nil {
		t.Fatal("fatal watchdog produced no error")
	}
	if !strings.Contains(err.Error(), "faults: watchdog:") {
		t.Fatalf("error = %v, want a watchdog violation", err)
	}
}

// TestDisconnectingCampaignError golden-tests the message a campaign
// reports when its reconfiguration finds the surviving topology
// disconnected (ibsim prints it verbatim and exits nonzero).
func TestDisconnectingCampaignError(t *testing.T) {
	topo := irregularTopo(t, 8, 4, 1)
	camp, err := faults.Parse("swdown@1000:3; reconfig@2000")
	if err != nil {
		t.Fatal(err)
	}
	spec := campaignSpec(t, topo, 2, camp, 1)
	spec.Measure = 10_000
	_, err = experiments.Run(spec)
	if err == nil {
		t.Fatal("disconnecting campaign reported no error")
	}
	const want = "faults: reconfig at t=2000: subnet: failures disconnect the network"
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err.Error(), want)
	}
}

func TestApplyValidatesEvents(t *testing.T) {
	topo := irregularTopo(t, 8, 4, 1)
	for _, spec := range []string{
		"down@100:0-7",  // no such link (0-7 not guaranteed) — validated below
		"swdown@100:99", // switch out of range
		"swdown@100:-1", // negative switch
	} {
		camp, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Skip the link case if the generator happened to wire 0-7.
		if camp.Events[0].Kind == faults.LinkDown && topo.HasLink(camp.Events[0].A, camp.Events[0].B) {
			continue
		}
		rs := campaignSpec(t, topo, 2, camp, 1)
		if _, err := experiments.Run(rs); err == nil {
			t.Errorf("campaign %q accepted on topology without its target", spec)
		}
	}
}

// TestExpandDeterministic: the same seed yields the same random flap
// schedule; different seeds yield a different one.
func TestExpandDeterministic(t *testing.T) {
	topo := irregularTopo(t, 16, 4, 42)
	camp, err := faults.Parse("rand:5:2000@10000-90000; autoreconfig:3000")
	if err != nil {
		t.Fatal(err)
	}
	spec := campaignSpec(t, topo, 2, camp, 21)
	spec.Measure = 60_000
	a, err := experiments.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same fault seed diverged:\n%+v\n%+v", a, b)
	}
	spec.FaultSeed = 22
	c, err := experiments.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Degraded, c.Degraded) && a.AvgLatencyNs == c.AvgLatencyNs {
		t.Fatal("different fault seeds produced identical runs")
	}
}
