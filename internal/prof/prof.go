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

// Phase numbers index phaseCtxs; noPhase is the unlabelled top level.
const (
	noPhase = iota
	routePhase
	arbitratePhase
	departPhase
)

// phaseCtxs holds one labelled context per phase, built once, so a
// Phase call only switches the goroutine's label pointer.
var phaseCtxs = [...]context.Context{
	noPhase:        context.Background(),
	routePhase:     phaseCtx(PhaseRoute),
	arbitratePhase: phaseCtx(PhaseArbitrate),
	departPhase:    phaseCtx(PhaseDepart),
}

// setLabels replaces the goroutine's profiler labels; tests swap in a
// recorder.
var setLabels = pprof.SetGoroutineLabels

// phaseCtx builds the labeled context carrying phase=name.
func phaseCtx(name string) context.Context {
	return pprof.WithLabels(context.Background(), pprof.Labels("phase", name))
}

// Phase runs f with the goroutine labeled phase=name, so profile
// samples taken inside attribute to that phase, then restores the
// enclosing phase's label: arbitrate after depart, which always runs
// within an arbitration pass, and no label after route and arbitrate,
// which run at top level. It does not allocate. name is PhaseRoute,
// PhaseArbitrate or PhaseDepart. Callers should gate on
// HotPhasesEnabled — Phase itself always labels.
func Phase(name string, f func()) {
	p, outer := routePhase, noPhase
	switch name {
	case PhaseRoute:
	case PhaseArbitrate:
		p = arbitratePhase
	case PhaseDepart:
		p, outer = departPhase, arbitratePhase
	default:
		panic("prof: unknown phase " + name)
	}
	setLabels(phaseCtxs[p])
	f()
	setLabels(phaseCtxs[outer])
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
// that finalizes them (defer it in main). The memory profile is
// written at stop time as the allocs profile: every allocation since
// the process started, by call site, viewed as alloc_space by
// default. By then a finished run is unreachable, so the heap
// profile's default in-use view would be empty.
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
			// The profile's counts lag by one GC cycle; a cycle now
			// brings in the allocations since the last one.
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
			}
		}
	}, nil
}
