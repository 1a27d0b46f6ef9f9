package main

import (
	"os"
	"strings"
	"testing"

	"ibasim/internal/experiments"
)

// TestMain lets the test binary serve as the campaign's worker, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(runWorker())
	}
	os.Exit(m.Run())
}

// tinySize shrinks every workload to a fraction of a second.
var tinySize = size{
	fig3Switches: 8,
	fig3Scale: func() experiments.Scale {
		sc := experiments.QuickScale()
		sc.LoadPoints = 2
		sc.Warmup, sc.Measure, sc.DrainGrace = 5_000, 20_000, 5_000
		return sc
	},
	hotSwitches: 8,
	hotMeasure:  100_000,
	campSizes:   []int{8},
	campSeeds:   1,
	campLoads:   2,
}

func declaredForTest(t *testing.T) declared {
	t.Helper()
	d, err := loadDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func runTiny(t *testing.T, d declared, name string, trace bool, pin string) result {
	t.Helper()
	_, r, err := bench(d, name, defaultSeed, 1, trace, tinySize, pin, t.TempDir(), "")
	if err != nil {
		t.Fatalf("%s (trace %v): %v", name, trace, err)
	}
	return r
}

// checkEmitted requires exactly the declared metrics, each with its
// declared unit. That every one not listed in unexercised was actually
// measured, rather than filled with 0, report itself enforces (see
// TestReportRequiresMeasuredMetrics), so a run that lost a metric fails
// in runTiny.
func checkEmitted(t *testing.T, r result, decls []metricDecl) {
	t.Helper()
	if len(r.Metrics) != len(decls) {
		t.Errorf("emitted %d metrics, declared %d", len(r.Metrics), len(decls))
	}
	for _, d := range decls {
		got, ok := r.Metrics[d.Name]
		if !ok || got.Unit != d.Unit {
			t.Errorf("metric %s: emitted %+v (present %v), declared unit %s", d.Name, got, ok, d.Unit)
		}
	}
}

// exact reports whether a per-layer metric is a count or a simulated
// result, which must repeat exactly between runs.
func exact(d metricDecl) bool {
	return d.Unit == "count" || strings.HasPrefix(d.Name, "model.") || strings.HasPrefix(d.Name, "faults.")
}

func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	d := declaredForTest(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			r := runTiny(t, d, name, false, "")
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("timed run: correct %v, %d of %d failed", r.Correct, r.Failed, r.Attempted)
			}
			checkEmitted(t, r, d.EndToEnd)
			for _, m := range d.EndToEnd {
				if v := r.Metrics[m.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v)
				}
			}

			first := runTiny(t, d, name, true, "")
			second := runTiny(t, d, name, true, "")
			for _, r := range []result{first, second} {
				if !r.Correct || r.Failed != 0 {
					t.Fatalf("traced run: correct %v, %d of %d failed", r.Correct, r.Failed, r.Attempted)
				}
				checkEmitted(t, r, d.PerLayer)
			}
			for _, m := range d.PerLayer {
				if exact(m) && first.Metrics[m.Name] != second.Metrics[m.Name] {
					t.Errorf("%s differs between traced runs: %v, then %v", m.Name, first.Metrics[m.Name].Value, second.Metrics[m.Name].Value)
				}
			}
		})
	}
}

// TestWrongDigestIsAFailedOperation pins every workload to a digest no
// output has: the operations on the default seed's input must be
// reported failed, with the run itself completing.
func TestWrongDigestIsAFailedOperation(t *testing.T) {
	d := declaredForTest(t)
	wrong := strings.Repeat("0", 64)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			r := runTiny(t, d, name, false, wrong)
			if r.Correct || r.Failed < 1 || r.Failed > r.Attempted {
				t.Fatalf("correct %v, %d of %d failed; want failed operations", r.Correct, r.Failed, r.Attempted)
			}
		})
	}
}

// TestReportRequiresMeasuredMetrics checks the guard behind
// checkEmitted: a declared metric the workload should measure but did
// not, or measured although listed as not exercised, is a harness
// error rather than a silent 0.
func TestReportRequiresMeasuredMetrics(t *testing.T) {
	decls := []metricDecl{{Name: "fabric.hops", Unit: "count"}, {Name: "campaign.jobs", Unit: "count"}}
	ok := outcome{attempted: 1, metrics: map[string]float64{"fabric.hops": 3}}
	r, err := report(ok, decls, []string{"campaign."})
	if err != nil || r.Metrics["campaign.jobs"] != (metricValue{Value: 0, Unit: "count"}) {
		t.Fatalf("report = %+v, %v", r, err)
	}
	if _, err := report(ok, decls, nil); err == nil {
		t.Error("a missing metric was reported as 0")
	}
	ok.metrics["campaign.jobs"] = 2
	if _, err := report(ok, decls, []string{"campaign."}); err == nil {
		t.Error("a metric listed as not exercised was measured without complaint")
	}
	ok.metrics["bogus"] = 1
	if _, err := report(ok, decls, nil); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}

func TestCPUByLabelRejectsGarbage(t *testing.T) {
	if _, _, err := cpuByLabel([]byte("not a profile"), "phase"); err == nil {
		t.Fatal("decoded garbage")
	}
}
