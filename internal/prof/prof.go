// Package prof wires the standard Go profilers into the command-line
// tools. Both ibsim and ibbench register -cpuprofile, -memprofile and
// -trace flags through Flags; the resulting pprof/trace files feed
// `go tool pprof` and `go tool trace` directly, which is how the
// scheduler and hot-path work in this repository is measured against
// real workloads rather than microbenchmarks alone.
package prof

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sync/atomic"
)

// Hot-path phase labels. The fabric wraps its forwarding phases in
// Phase(...) so CPU profiles and execution traces attribute samples to
// the route/arbitrate/depart stages instead of one undifferentiated
// switch body.
const (
	PhaseRoute     = "route"     // switch.receive: table access + buffer insert
	PhaseArbitrate = "arbitrate" // delay-0 allocation pass
	PhaseDepart    = "depart"    // startTx: credit reserve + event fan-out
)

// PhaseFused labels nothing: it named the inline pass of hop fusion,
// which was removed. The benchmark program still reads its share (now
// always 0), so the name stays.
const PhaseFused = "fused"

// hotPhases gates the Phase wrappers. Labeling costs a goroutine-label
// swap per call, far too hot for the default run, so the fabric checks
// HotPhasesEnabled (one atomic load) and calls Phase only while a CPU
// profile or execution trace is actually being captured; Config.Start
// flips the gate for its lifetime.
var hotPhases atomic.Bool

// SetHotPhases arms or disarms the hot-path phase labels. Exposed for
// tests; production callers let Config.Start manage it.
func SetHotPhases(on bool) { hotPhases.Store(on) }

// HotPhasesEnabled reports whether hot-path phase labeling is armed.
func HotPhasesEnabled() bool { return hotPhases.Load() }

// phaseCtxs caches one labeled context per known phase so steady-state
// labeling does not rebuild the label set per call.
var phaseCtxs = map[string]context.Context{
	PhaseRoute:     phaseCtx(PhaseRoute),
	PhaseArbitrate: phaseCtx(PhaseArbitrate),
	PhaseDepart:    phaseCtx(PhaseDepart),
}

// phaseCtx builds the labeled context carrying phase=name.
func phaseCtx(name string) context.Context {
	return pprof.WithLabels(context.Background(), pprof.Labels("phase", name))
}

// Phase runs f with the goroutine labeled phase=name, so profile
// samples taken inside attribute to that phase. Callers should gate on
// HotPhasesEnabled — Phase itself always labels.
func Phase(name string, f func()) {
	ctx, ok := phaseCtxs[name]
	if !ok {
		ctx = phaseCtx(name)
	}
	pprof.Do(ctx, pprof.Labels(), func(context.Context) { f() })
}

// Config holds the three profile destinations; empty means disabled.
type Config struct {
	CPU   string
	Mem   string
	Trace string
}

// Flags registers the profiling flags on the default flag set. Call
// before flag.Parse.
func Flags() *Config {
	c := &Config{}
	flag.StringVar(&c.CPU, "cpuprofile", "", "write a CPU profile (pprof) to this file")
	flag.StringVar(&c.Mem, "memprofile", "", "write a heap allocation profile (pprof) to this file at exit")
	flag.StringVar(&c.Trace, "trace", "", "write a runtime execution trace to this file")
	return c
}

// Start begins the configured profiles and returns the stop function
// that finalizes them (defer it in main). The heap profile is written
// at stop time, after a GC, so it reflects live steady-state memory.
func (c *Config) Start() (stop func(), err error) {
	var cpuF, traceF *os.File
	cleanup := func() {
		if traceF != nil {
			trace.Stop()
			traceF.Close()
		}
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
	}
	if c.CPU != "" {
		if cpuF, err = os.Create(c.CPU); err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err = pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	if c.Trace != "" {
		if traceF, err = os.Create(c.Trace); err != nil {
			cleanup()
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err = trace.Start(traceF); err != nil {
			traceF.Close()
			traceF = nil
			cleanup()
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	if c.CPU != "" || c.Trace != "" {
		// Arm the hot-path phase labels only while samples are actually
		// being captured; the fabric's forwarding path checks the gate
		// with one atomic load.
		SetHotPhases(true)
	}
	return func() {
		SetHotPhases(false)
		cleanup()
		if c.Mem != "" {
			f, err := os.Create(c.Mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
			}
		}
	}, nil
}
