// Command perfbench is the repository's benchmark: it runs one workload
// through the simulator's public entry points, checks the output, and
// prints the metrics BENCHMARK.json declares. Build and run it from the
// repository root with perfbench/run.sh:
//
//	bash perfbench/run.sh --workload fig3-64 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// performs the separate traced run and reports the per-layer metrics.
// The last line of standard output is the result object; the line
// before it stamps the run context. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared holds BENCHMARK.json's metric lists: the one place metric
// names and units are defined.
type declared struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDeclared(path string) (declared, error) {
	var d declared
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report attaches the declared units to the measured values. Every
// declared metric must be measured, except those matching skip (a name
// or a name prefix), the layers the workload does not exercise, which
// report 0. A metric measured but not declared, or measured though
// skipped, is a harness bug.
func report(o outcome, decls []metricDecl, skip []string) (result, error) {
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		v, ok := o.metrics[d.Name]
		if skipped := matchesAny(d.Name, skip); ok == skipped {
			return r, fmt.Errorf("metric %q: measured %v, listed as not exercised %v", d.Name, ok, skipped)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for k := range o.metrics {
		if _, ok := r.Metrics[k]; !ok {
			return r, fmt.Errorf("metric %q is not declared in BENCHMARK.json", k)
		}
	}
	if r.Attempted < 1 {
		return r, fmt.Errorf("no operation was attempted")
	}
	return r, nil
}

func matchesAny(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// bench performs one benchmark run and returns the context stamp and
// the result.
func bench(d declared, name string, seed uint64, seconds int, trace bool, sz size, pin, scratch, spans string) (runContext, result, error) {
	ctx := newRunContext(name, seed, seconds, trace)
	w, err := newWorkload(name, seed, sz, pin, scratch)
	if err != nil {
		return ctx, result{}, err
	}
	var o outcome
	decls, skip := d.EndToEnd, []string(nil)
	if trace {
		decls, skip = d.PerLayer, unexercised[name]
		tr := newTracer()
		o.metrics = make(map[string]float64)
		if o.attempted, o.failed, err = w.trace(tr, o.metrics); err != nil {
			return ctx, result{}, err
		}
		ctx.Load1After = loadAvg1()
		if spans != "" {
			if err := tr.write(spans, ctx); err != nil {
				return ctx, result{}, err
			}
		}
	} else {
		if o, err = timedRun(w, seconds); err != nil {
			return ctx, result{}, err
		}
		ctx.Load1After = loadAvg1()
	}
	r, err := report(o, decls, skip)
	return ctx, r, err
}

func main() {
	// The campaign coordinator re-executes this binary as its worker.
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(runWorker())
	}
	name := flag.String("workload", "", "workload: fig3-64, hotspot-16 or faultcamp")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "nominal length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	d, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	build := ".bench_build"
	if err := os.MkdirAll(build, 0o755); err != nil {
		fail(err)
	}
	scratch, err := os.MkdirTemp(build, "tmp-")
	if err != nil {
		fail(err)
	}
	spans := filepath.Join(build, "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
	ctx, r, err := bench(d, *name, *seed, *seconds, *trace == 1, fullSize, pins[*name], scratch, spans)
	if rerr := os.RemoveAll(scratch); err == nil {
		err = rerr
	}
	if err != nil {
		fail(err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"context": ctx}); err != nil {
		fail(err)
	}
	if err := enc.Encode(r); err != nil {
		fail(err)
	}
}
