package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ibasim/internal/campaign"
	"ibasim/internal/experiments"
	"ibasim/internal/topology"
)

// sample is one measured section: host seconds and CPU seconds, and
// for a campaign the largest peak resident set among its workers.
type sample struct {
	wall, cpu float64
	workerKiB int64
}

// measure times f. With children set the CPU time includes the worker
// processes f started and reaped.
func measure(children bool, f func()) sample {
	c0 := cpuSeconds(children)
	t0 := time.Now()
	f()
	wall := time.Since(t0).Seconds()
	return sample{wall: wall, cpu: cpuSeconds(children) - c0}
}

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru
}

func cpuSeconds(children bool) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	ru := rusage(syscall.RUSAGE_SELF)
	s := tv(ru.Utime) + tv(ru.Stime)
	if children {
		ru = rusage(syscall.RUSAGE_CHILDREN)
		s += tv(ru.Utime) + tv(ru.Stime)
	}
	return s
}

// resetPeakRSS restarts the kernel's resident-set high-water mark for
// this process at its current size, so the next reading covers one
// operation alone. It reports false where the kernel does not support
// it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSKiB is this process's resident-set high-water mark, or its
// lifetime peak where /proc does not report one.
func peakRSSKiB() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
					return v
				}
			}
		}
	}
	return rusage(syscall.RUSAGE_SELF).Maxrss
}

// workerPeakPrefix marks the line a campaign worker prints on standard
// error with its peak resident set in KiB. The kernel's
// largest-reaped-child figure cannot stand in for it: it survives exec
// and so also covers the build that started this process.
const workerPeakPrefix = "perfbench-worker-peak-kib "

// runWorker serves one campaign job, then reports the worker's peak
// resident set.
func runWorker() int {
	code := campaign.WorkerMain(os.Stdin, os.Stdout, os.Stderr)
	fmt.Fprintf(os.Stderr, "%s%d\n", workerPeakPrefix, peakRSSKiB())
	return code
}

// workerPeaks is the campaign coordinator's log: it receives progress
// lines and every worker's standard error, and keeps the largest peak
// the workers reported. The coordinator serializes its writes.
type workerPeaks struct {
	partial []byte
	kib     int64
}

func (p *workerPeaks) Write(b []byte) (int, error) {
	p.partial = append(p.partial, b...)
	for {
		i := bytes.IndexByte(p.partial, '\n')
		if i < 0 {
			return len(b), nil
		}
		if v, ok := strings.CutPrefix(string(p.partial[:i]), workerPeakPrefix); ok {
			if kib, err := strconv.ParseInt(v, 10, 64); err == nil {
				p.kib = max(p.kib, kib)
			}
		}
		p.partial = p.partial[i+1:]
	}
}

// outcome is what one benchmark run reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// reps is the fixed number of timed operations a run of the given
// length makes: the run length over the operation's nominal cost, at
// least three so a median exists. Fixing the count, instead of
// stopping on the clock, gives every run of a workload the same work.
func reps(seconds int, opSeconds float64) int {
	return max(3, int(math.Round(float64(seconds)/opSeconds)))
}

// timedRun measures the end-to-end metrics: a fixed number of timed
// operations, each after a full collection that also returns freed
// memory to the OS, so one operation's garbage never lands in the next,
// and the median of repeated set-ups; then the correctness check. Peak
// memory is the median of the operations' own peaks; the
// process-lifetime peak would be the single worst of them.
func timedRun(w workload, seconds int) (outcome, error) {
	n := reps(seconds, w.opSeconds())
	var setups, walls, cpus, peaks []float64
	for i := 0; i < n; i++ {
		debug.FreeOSMemory()
		// The set-ups are spread over the run, a share before each
		// operation, so that they sample the same host conditions as the
		// operations instead of the run's first fraction of a second.
		for j := 0; j < (w.setupReps()+n-1)/n; j++ {
			// A set-up takes milliseconds; collecting first keeps a GC
			// cycle from landing inside one.
			runtime.GC()
			var err error
			s := measure(false, func() { err = w.setup() })
			if err != nil {
				return outcome{}, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, s.wall)
		}
		if !resetPeakRSS() {
			peaks = nil // only the lifetime peak can be read
		}
		s, err := w.run()
		if err != nil {
			return outcome{}, err
		}
		peak := float64(max(peakRSSKiB(), s.workerKiB)) / 1024
		walls, cpus, peaks = append(walls, s.wall), append(cpus, s.cpu), append(peaks, peak)
		fmt.Fprintf(os.Stderr, "perfbench: operation %d: %.3f s wall, %.3f s cpu, %.1f MiB peak\n", i+1, s.wall, s.cpu, peaks[len(peaks)-1])
	}
	attempted, failed := w.verify()
	return outcome{attempted: attempted, failed: failed, metrics: map[string]float64{
		"wall_s":      median(walls),
		"cpu_s":       median(cpus),
		"setup_s":     median(setups),
		"peak_rss_mb": median(peaks),
	}}, nil
}

// traceItems is the layer-by-layer part of every traced run. For each
// simulation it times the public entry point untraced, then replays
// its call sequence three times: with every observer (whose RunResult
// must equal the entry point's), without the metrics collector and
// without the auditor, which prices those two observers. A final pass
// reruns the entry points under a CPU profile for the fabric's phase
// split. entryWall is the host time of the workload's own entry point,
// the denominator of the pool efficiency. It returns the entry point's
// results and how many replays were checked and failed.
func traceItems(tr *tracer, items []item, entryWall float64, m map[string]float64) (refs []experiments.RunResult, attempted, failed int, err error) {
	var refSec, fullTotal, fullRun, noColRun, noAudRun []float64
	var events, hops, fused, parks, generated, measured, hopChecks uint64
	var last replayed
	for i, it := range items {
		run := i + 1
		var topo *topology.Topology
		tr.do(run, 0, "topology.generate", func() { topo, err = topology.GenerateIrregular(it.topo) })
		if err != nil {
			return nil, 0, 0, err
		}
		tr.do(run, 0, "routing.updown", func() { err = routeTopology(topo) })
		if err != nil {
			return nil, 0, 0, err
		}
		var ref experiments.RunResult
		s := measure(false, func() { ref, err = it.ref() })
		if err != nil {
			return nil, 0, 0, fmt.Errorf("simulation %d: %w", run, err)
		}
		ref.ShardStats = nil
		refs, refSec = append(refs, ref), append(refSec, s.wall)

		full, err := replay(tr, run, it.spec, allObservers)
		attempted++
		if err != nil || !reflect.DeepEqual(full.res, ref) {
			fmt.Fprintf(os.Stderr, "perfbench: replay %d differs from the entry point (err %v)\n", run, err)
			failed++
		}
		noCol, err := replay(tr, run, it.spec, observers{auditor: true})
		if err != nil {
			return nil, 0, 0, err
		}
		noAud, err := replay(tr, run, it.spec, observers{collector: true})
		if err != nil {
			return nil, 0, 0, err
		}
		fullTotal, fullRun = append(fullTotal, full.total.Seconds()), append(fullRun, full.runPhase.Seconds())
		noColRun, noAudRun = append(noColRun, noCol.runPhase.Seconds()), append(noAudRun, noAud.runPhase.Seconds())
		events, hops, fused, parks = events+full.events, hops+full.hops, fused+full.fused, parks+full.parks
		generated, measured, hopChecks = generated+full.generated, measured+ref.PacketsMeasured, hopChecks+ref.Audit.HopChecks
		last = full
	}
	shares, err := phaseShares(func() error {
		for _, it := range items {
			if _, err := experiments.Run(it.spec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	tr.finish()

	runS := sum(fullRun)
	for k, v := range map[string]float64{
		"topology.gen_ms":            median(tr.selfMs("topology.generate")),
		"routing.updown_ms":          median(tr.selfMs("routing.updown")),
		"subnet.configure_ms":        median(tr.selfMs("subnet.configure")),
		"traffic.init_ms":            median(tr.selfMs("traffic.new_generator")),
		"fabric.wire_ms":             median(tr.selfMs("fabric.new_network")),
		"metrics.finalize_ms":        median(tr.selfMs("metrics.finalize")),
		"check.finalize_ms":          median(tr.selfMs("check.finalize")),
		"fabric.run_s":               runS,
		"sim.events":                 float64(events),
		"sim.ns_per_event":           ratio(runS*1e9, float64(events)),
		"fabric.hops":                float64(hops),
		"fabric.ns_per_hop":          ratio(runS*1e9, float64(hops)),
		"fabric.fused_kicks":         float64(fused),
		"fabric.fused_frac":          ratio(float64(fused), float64(fused+events)),
		"fabric.arb_parks":           float64(parks),
		"fabric.parks_per_hop":       ratio(float64(parks), float64(hops)),
		"traffic.generated":          float64(generated),
		"metrics.packets_measured":   float64(measured),
		"check.hop_checks":           float64(hopChecks),
		"metrics.overhead_frac":      ratio(runS, sum(noColRun)) - 1,
		"check.overhead_frac":        ratio(runS, sum(noAudRun)) - 1,
		"bench.trace_overhead_frac":  ratio(sum(fullTotal), sum(refSec)) - 1,
		"experiments.points":         float64(len(items)),
		"experiments.point_ms_p50":   median(refSec) * 1e3,
		"experiments.point_ms_max":   maxOf(refSec) * 1e3,
		"experiments.pool_eff":       ratio(sum(refSec), float64(runtime.GOMAXPROCS(0))*entryWall),
		"model.p99_latency_ns":       last.res.P99LatencyNs,
		"model.link_util_peak":       last.util.Peak,
		"model.link_imbalance":       last.util.Imbalance,
		"fabric.cpu_share.route":     shares["route"],
		"fabric.cpu_share.arbitrate": shares["arbitrate"],
		"fabric.cpu_share.depart":    shares["depart"],
		"fabric.cpu_share.fused":     shares["fused"],
	} {
		m[k] = v
	}
	return refs, attempted, failed, nil
}
