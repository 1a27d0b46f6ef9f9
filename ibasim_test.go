package ibasim

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ibasim/internal/fabric"
)

// tiny returns a fast test configuration.
func tiny() Config {
	cfg := DefaultConfig()
	cfg.Switches = 8
	cfg.WarmupNs = 20_000
	cfg.MeasureNs = 60_000
	cfg.DrainNs = 20_000
	cfg.Load = 0.01
	return cfg
}

func TestSimulateBasics(t *testing.T) {
	res, err := Simulate(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsMeasured == 0 || res.AcceptedPerSwitch <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.AvgLatencyNs < 400 {
		t.Fatalf("latency %v below physical floor", res.AvgLatencyNs)
	}
}

func TestSimulateReproducible(t *testing.T) {
	a, err := Simulate(tiny())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config diverged: %+v vs %+v", a, b)
	}
}

func TestSimulateRejectsBadConfig(t *testing.T) {
	bad := tiny()
	bad.Switches = 1
	if _, err := Simulate(bad); err == nil {
		t.Fatal("1-switch topology accepted")
	}
	bad = tiny()
	bad.Pattern = "nonsense"
	if _, err := Simulate(bad); err == nil {
		t.Fatal("unknown pattern accepted")
	}
	bad = tiny()
	bad.RoutingOptions = 300 // exceeds LMC ceiling
	if _, err := Simulate(bad); err == nil {
		t.Fatal("MR 300 accepted")
	}
}

func TestSweepAndThroughput(t *testing.T) {
	pts, err := Sweep(tiny(), []float64{0.005, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].Offered <= pts[0].Offered {
		t.Fatal("offered not increasing")
	}
	if Throughput(pts) <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestLoadsGrid(t *testing.T) {
	l := Loads(0.01, 0.04, 3)
	if len(l) != 3 || l[0] != 0.01 {
		t.Fatalf("Loads = %v", l)
	}
	if l[1] < 0.019 || l[1] > 0.021 {
		t.Fatalf("geometric midpoint %v, want ~0.02", l[1])
	}
}

func TestCompareRoutingFavorsAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := tiny()
	cfg.MeasureNs = 100_000
	cmp, err := CompareRouting(cfg, Loads(0.01, 0.30, 4))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Deterministic <= 0 || cmp.Adaptive <= 0 {
		t.Fatalf("zero throughputs: %+v", cmp)
	}
	if cmp.Factor < 0.95 {
		t.Fatalf("adaptive factor %.2f < deterministic baseline", cmp.Factor)
	}
}

func TestSelectionAblationRuns(t *testing.T) {
	for _, c := range []struct{ imm, static bool }{
		{false, false}, {false, true}, {true, false}, {true, true},
	} {
		cfg := tiny()
		cfg.ImmediateSelection = c.imm
		cfg.StaticSelection = c.static
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if res.PacketsMeasured == 0 {
			t.Fatalf("%+v: no packets", c)
		}
	}
}

func TestEscapeReserveOverride(t *testing.T) {
	cfg := tiny()
	cfg.EscapeReserveCredits = 4 // MTU's worth, minimum legal reserve
	if _, err := Simulate(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.EscapeReserveCredits = 1000 // exceeds the buffer
	if _, err := Simulate(cfg); err == nil {
		t.Fatal("oversized escape reserve accepted")
	}
}

func TestSimulateTraced(t *testing.T) {
	var buf bytes.Buffer
	res, err := SimulateTraced(tiny(), 256, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsMeasured == 0 {
		t.Fatal("no packets measured")
	}
	if res.AdaptiveShare <= 0 || res.AdaptiveShare > 1 {
		t.Fatalf("AdaptiveShare = %v with 100%% adaptive traffic", res.AdaptiveShare)
	}
	// The run records far more events than the ring keeps, so the dump
	// holds a full ring: one line per retained event.
	if lines := strings.Count(buf.String(), "\n"); lines != 256 {
		t.Fatalf("trace dump has %d lines, want the ring's 256", lines)
	}
	for _, want := range []string{"created", "hop", "delivered"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("trace dump missing %q", want)
		}
	}
}

func TestSimulateTracedNilWriter(t *testing.T) {
	if _, err := SimulateTraced(tiny(), 16, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSourceMultipathConfig(t *testing.T) {
	cfg := tiny()
	cfg.AdaptiveSwitches = false
	cfg.AdaptiveFraction = 0
	cfg.SourceMultipath = 2
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsMeasured == 0 {
		t.Fatal("multipath run produced nothing")
	}
	// Enhanced switches + source multipath is contradictory.
	cfg.AdaptiveSwitches = true
	if _, err := Simulate(cfg); err == nil {
		t.Fatal("multipath with enhanced switches accepted")
	}
}

func TestResultObservables(t *testing.T) {
	res, err := Simulate(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.P99LatencyNs < res.AvgLatencyNs {
		t.Fatalf("p99 %v below avg %v", res.P99LatencyNs, res.AvgLatencyNs)
	}
	if res.OutOfOrderFraction < 0 || res.OutOfOrderFraction > 1 {
		t.Fatalf("OutOfOrderFraction = %v", res.OutOfOrderFraction)
	}
}

func TestRunTable2Writers(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTable2(Quick, 4, 3, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatalf("missing header:\n%s", buf.String())
	}
}

func TestScaleValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTable2("bogus", 4, 3, &buf); err == nil || err.Error() != `ibasim: unknown scale "bogus"` {
		t.Fatalf("RunTable2(bogus) = %v, want the unknown-scale error", err)
	}
}

// TestFaultsFromFile: a campaign read from a file ("@path"), split over
// several lines, runs exactly as the same campaign given inline.
func TestFaultsFromFile(t *testing.T) {
	cfg := tiny()
	cfg.FaultSeed = 3
	cfg.Faults = "rand:2:10000@25000-60000; reconfig@40000; autoreconfig:5000; sweep:2000:100; watchdog:5000:100000"
	inline, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inline.Degraded.FaultsInjected == 0 || inline.Degraded.Reconfigs == 0 {
		t.Fatalf("the campaign did nothing: %+v", inline.Degraded)
	}
	path := filepath.Join(t.TempDir(), "campaign.txt")
	text := "rand:2:10000@25000-60000;\n  reconfig@40000;\nautoreconfig:5000;\n\tsweep:2000:100;\nwatchdog:5000:100000\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Faults = "@" + path
	fromFile, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile, inline) {
		t.Fatalf("@file result differs from the inline campaign's:\n%+v\n%+v", fromFile, inline)
	}
}

// TestSimulateReportsRetry: a fault campaign turns on the hosts'
// send-timeout retry, and Simulate reports that machinery's work in
// Result.Retry, consistent with the campaign's Degraded counters.
func TestSimulateReportsRetry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TopologySeed, cfg.Seed = 4, 4
	cfg.AdaptiveSwitches = false
	cfg.AdaptiveFraction = 0
	cfg.Load = 0.0525
	cfg.WarmupNs = 30_000
	cfg.MeasureNs = 150_000
	cfg.DrainNs = 30_000
	cfg.Faults = "rand:4:15000@50000-150000; autoreconfig:10000"
	cfg.FaultSeed = 1
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(fabric.DefaultRetry().EffectiveBackoffCap()); res.Retry.BackoffCapNs != want {
		t.Fatalf("Retry.BackoffCapNs = %d, want the default policy's cap %d", res.Retry.BackoffCapNs, want)
	}
	if res.Retry.Retries == 0 || res.Retry.Retries != res.Degraded.Retries {
		t.Fatalf("Retry.Retries = %d, Degraded.Retries = %d: want equal and nonzero", res.Retry.Retries, res.Degraded.Retries)
	}
}
