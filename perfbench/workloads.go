package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"

	"ibasim/internal/campaign"
	"ibasim/internal/experiments"
	"ibasim/internal/fabric"
	"ibasim/internal/faults"
	"ibasim/internal/ib"
	"ibasim/internal/sim"
	"ibasim/internal/subnet"
	"ibasim/internal/topology"
	"ibasim/internal/traffic"
)

// defaultSeed is the seed the pinned digests were taken at.
const defaultSeed = 1

// workload is one benchmark workload. The harness times setup and run;
// verify checks every timed operation after the timed phase, so no
// oracle work lands inside a measurement.
type workload interface {
	// opSeconds is the nominal host time of one timed operation; the
	// harness derives the fixed repetition count from it.
	opSeconds() float64
	// setupReps is how many set-ups the harness times for setup_s.
	setupReps() int
	// setup performs one set-up of the workload, as the timed operation
	// needs it, with no disk I/O or process start.
	setup() error
	// run performs one timed operation and returns its measured sample.
	// An error is a harness failure; a failing operation is recorded
	// for verify instead.
	run() (sample, error)
	// verify checks every operation run so far and returns how many
	// operations were attempted and how many failed.
	verify() (attempted, failed int)
	// trace performs the traced run and fills the per-layer metrics.
	trace(tr *tracer, m map[string]float64) (attempted, failed int, err error)
}

// size holds the knobs that separate the benchmark's workloads from the
// miniature versions the self-test runs.
type size struct {
	fig3Switches int
	fig3Scale    func() experiments.Scale
	hotSwitches  int
	hotMeasure   sim.Time
	campSizes    []int
	campSeeds    int
	campLoads    int
}

// fullSize is what the benchmark measures.
var fullSize = size{
	fig3Switches: 64,
	fig3Scale:    experiments.QuickScale,
	hotSwitches:  16,
	hotMeasure:   8_000_000,
	campSizes:    []int{8, 16},
	campSeeds:    4,
	campLoads:    6,
}

// pins are sha256 digests of each workload's output at defaultSeed and
// fullSize, taken from the tree this benchmark was written against. A
// change that moves one changed what the simulator computes.
var pins = map[string]string{
	"fig3-64":    "318ce6148dc57e0092143142ed5f605208e29b0b20d56bddaecffcf98396b943",
	"hotspot-16": "2af20b2111dc7e785aa867a5b833d8a7f0feadca3814742b526cc0bf6c1fd5c1",
	"faultcamp":  "42773f1b445b769b0d83f6602e6a65b8708b2c880772251e7c479dec5db3d3ed",
}

// offPin reports whether got, the digest of the output for seed,
// contradicts pin. Only the default seed's output is pinned; "" pins
// nothing.
func offPin(pin string, seed uint64, got string) bool {
	return pin != "" && seed == defaultSeed && got != pin
}

var workloadNames = []string{"fig3-64", "hotspot-16", "faultcamp"}

// unexercised names, per workload, the per-layer metrics (by name or
// name prefix) of layers the workload does not exercise. They report 0;
// the traced run must measure every other declared metric.
var unexercised = map[string][]string{
	"fig3-64":    {"campaign.", "faults."},
	"hotspot-16": {"campaign.", "faults.", "model.factor"},
}

// newWorkload builds the named workload for seed. pin is the digest of
// the workload's output at defaultSeed; scratch is the directory
// campaign stores are created (and removed) in.
func newWorkload(name string, seed uint64, sz size, pin, scratch string) (workload, error) {
	switch name {
	case "fig3-64":
		sc := sz.fig3Scale()
		sc.FirstSeed = seed
		return &fig3Load{sc: sc, switches: sz.fig3Switches, pin: pin}, nil
	case "hotspot-16":
		sc := experiments.QuickScale()
		sc.Warmup, sc.Measure, sc.DrainGrace = 20_000, sz.hotMeasure, 20_000
		return &hotLoad{sc: sc, switches: sz.hotSwitches, seed: seed, pin: pin}, nil
	case "faultcamp":
		return newCampLoad(seed, sz, pin, scratch)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// resultDigest hashes a RunResult's observables (ShardStats is an
// execution artifact, not an observable).
func resultDigest(r experiments.RunResult) string {
	r.ShardStats = nil
	b, err := json.Marshal(r)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return digest(b)
}

// oracleScale runs sc on the reference implementations the simulator's
// differential tests compare against: binary-heap scheduler, rescanning
// arbiter, no hop fusion. Their results are bit-identical by contract.
func oracleScale(sc experiments.Scale) experiments.Scale {
	sc.EngineOpts = []sim.EngineOption{sim.WithScheduler(sim.SchedulerHeap)}
	sc.Arb = fabric.ArbScan
	sc.Unfused = true
	return sc
}

// buildFabric is one fabric build with spec's configuration: LID plan,
// network wiring, subnet configuration and traffic binding.
func buildFabric(spec experiments.RunSpec) error {
	plan, err := ib.NewAddressPlan(spec.Topo.NumHosts(), spec.LMC)
	if err != nil {
		return err
	}
	net, err := fabric.NewNetwork(spec.Topo, plan, spec.Fabric, spec.Seed)
	if err != nil {
		return err
	}
	if _, err := subnet.Configure(net, subnet.Options{MaxRoutingOptions: spec.MR, Root: -1}); err != nil {
		return err
	}
	_, err = traffic.NewGenerator(net, spec.Traffic)
	return err
}

// ---- fig3-64 ----

// fig3Load is the paper's headline artifact: one Figure 3 panel through
// experiments.Figure3, on the LoadSweep pool. The panel's topology
// seed is also its traffic seed, and 64-switch topologies differ in
// simulated work by up to ±6%, so operation i of a run draws the panel
// of seed+i: every run then spans as many topologies as operations, as
// the paper's protocol averages over ten, and neighbouring seeds see
// nearly the same mix.
type fig3Load struct {
	sc       experiments.Scale // FirstSeed is the workload seed
	switches int
	pin      string

	outs []fig3Out
}

type fig3Out struct {
	seed   uint64
	res    *experiments.Figure3Result
	digest string
	err    error
}

func (w *fig3Load) opSeconds() float64 { return 2.0 }
func (w *fig3Load) setupReps() int     { return 40 }

// scale returns the panel scale of topology (and traffic) seed.
func (w *fig3Load) scale(seed uint64) experiments.Scale {
	sc := w.sc
	sc.FirstSeed = seed
	return sc
}

func (w *fig3Load) topoSpec(seed uint64) topology.IrregularSpec {
	return topology.IrregularSpec{NumSwitches: w.switches, HostsPerSwitch: w.sc.HostsPerSw, InterSwitch: 4, Seed: seed}
}

// pointSpec is the RunSpec Figure3 simulates for one adaptive fraction
// and load.
func pointSpec(sc experiments.Scale, topo *topology.Topology, frac, load float64) experiments.RunSpec {
	spec := sc.Spec(topo, 2, 32, frac, traffic.Uniform{NumHosts: topo.NumHosts()}, sc.FirstSeed, true)
	spec.Traffic.LoadBytesPerNsPerHost = load
	return spec
}

func (w *fig3Load) loads() []float64 {
	return experiments.DefaultLoads(w.sc.LoadLo, w.sc.LoadHi, w.sc.LoadPoints)
}

func (w *fig3Load) setup() error {
	topo, err := topology.GenerateIrregular(w.topoSpec(w.sc.FirstSeed))
	if err != nil {
		return err
	}
	return buildFabric(pointSpec(w.sc, topo, experiments.Figure3Fractions[0], w.loads()[0]))
}

func (w *fig3Load) call(seed uint64) fig3Out {
	res, err := experiments.Figure3(w.scale(seed), w.switches)
	if err != nil {
		return fig3Out{seed: seed, err: err}
	}
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		return fig3Out{seed: seed, err: err}
	}
	return fig3Out{seed: seed, res: res, digest: digest(buf.Bytes())}
}

func (w *fig3Load) run() (sample, error) {
	var out fig3Out
	s := measure(false, func() { out = w.call(w.sc.FirstSeed + uint64(len(w.outs))) })
	w.outs = append(w.outs, out)
	return s, nil
}

// verify requires every panel to be auditor-clean (Figure3 fails on any
// violation), the default seed's panel to hash to the pin, and every
// panel's lightest and heaviest points to match the reference
// implementations.
func (w *fig3Load) verify() (attempted, failed int) {
	for _, o := range w.outs {
		attempted++
		err := o.err
		if err == nil && offPin(w.pin, o.seed, o.digest) {
			err = fmt.Errorf("digest %s, pinned %s", o.digest, w.pin)
		}
		if err == nil {
			err = w.spotCheck(o)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: fig3 panel of seed %d: %v\n", o.seed, err)
			failed++
		}
	}
	return attempted, failed
}

func (w *fig3Load) spotCheck(o fig3Out) error {
	topo, err := topology.GenerateIrregular(w.topoSpec(o.seed))
	if err != nil {
		return err
	}
	loads := w.loads()
	last := len(experiments.Figure3Fractions) - 1
	for _, p := range [][2]int{{0, 0}, {last, len(loads) - 1}} {
		got := o.res.Series[p[0]].Points[p[1]]
		r, err := experiments.Run(pointSpec(oracleScale(w.scale(o.seed)), topo, experiments.Figure3Fractions[p[0]], loads[p[1]]))
		if err != nil {
			return err
		}
		if want := sweepPoint(r); got != want {
			return fmt.Errorf("point %v: %+v, reference implementations give %+v", p, got, want)
		}
	}
	return nil
}

func sweepPoint(r experiments.RunResult) experiments.SweepPoint {
	return experiments.SweepPoint{Offered: r.OfferedPerSwitch, Accepted: r.AcceptedPerSwitch, AvgLatency: r.AvgLatencyNs}
}

// trace replays the workload seed's panel point by point.
func (w *fig3Load) trace(tr *tracer, m map[string]float64) (attempted, failed int, err error) {
	seed := w.sc.FirstSeed
	topo, err := topology.GenerateIrregular(w.topoSpec(seed))
	if err != nil {
		return 0, 0, err
	}
	var items []item
	for _, frac := range experiments.Figure3Fractions {
		for _, load := range w.loads() {
			spec := pointSpec(w.sc, topo, frac, load)
			items = append(items, item{topo: w.topoSpec(seed), spec: spec, ref: func() (experiments.RunResult, error) { return experiments.Run(spec) }})
		}
	}
	var out fig3Out
	wall := measure(false, func() { out = w.call(seed) }).wall
	attempted = 1
	if out.err != nil || offPin(w.pin, seed, out.digest) {
		fmt.Fprintf(os.Stderr, "perfbench: fig3 panel: digest %s, err %v\n", out.digest, out.err)
		failed++
	}
	refs, a, f, err := traceItems(tr, items, wall, m)
	if err != nil {
		return 0, 0, err
	}
	attempted, failed = attempted+a, failed+f
	if out.res == nil {
		return attempted, failed, nil
	}
	// Figure3's pooled sweep must agree with its points run one by one.
	i := 0
	for _, s := range out.res.Series {
		for _, p := range s.Points {
			if p != sweepPoint(refs[i]) {
				fmt.Fprintf(os.Stderr, "perfbench: fig3 point %d differs from experiments.Run\n", i)
				failed++
			}
			i++
		}
	}
	det := experiments.Throughput(out.res.Series[0].Points)
	ada := experiments.Throughput(out.res.Series[len(out.res.Series)-1].Points)
	m["model.factor"], m["model.accepted"] = ratio(ada, det), ada
	return attempted, failed, nil
}

// ---- hotspot-16 ----

// hotLoad is one long saturated hot-spot run on a single goroutine
// through experiments.RunObserved: the congestion tree dominates, so
// the arbiter and the source-queue backlog do the work.
type hotLoad struct {
	sc       experiments.Scale
	switches int
	seed     uint64
	pin      string

	spec experiments.RunSpec
	outs []hotOut
}

type hotOut struct {
	res    experiments.RunResult
	digest string
	err    error
}

func (w *hotLoad) opSeconds() float64 { return 2.2 }
func (w *hotLoad) setupReps() int     { return 200 }

func (w *hotLoad) topoSpec() topology.IrregularSpec {
	return topology.IrregularSpec{NumSwitches: w.switches, HostsPerSwitch: 4, InterSwitch: 4, Seed: 1}
}

// buildSpec generates the topology and the hot-spot pattern (30% of
// traffic to one host, chosen by a fixed stream so every seed congests
// the same tree) and offers 0.15 B/ns/host, past saturation.
func (w *hotLoad) buildSpec(sc experiments.Scale) (experiments.RunSpec, error) {
	topo, err := topology.GenerateIrregular(w.topoSpec())
	if err != nil {
		return experiments.RunSpec{}, err
	}
	hot, err := traffic.NewHotSpot(topo.NumHosts(), 0.3, sim.NewRNG(7))
	if err != nil {
		return experiments.RunSpec{}, err
	}
	spec := sc.Spec(topo, 2, 32, 1, hot, w.seed, true)
	spec.Traffic.LoadBytesPerNsPerHost = 0.15
	return spec, nil
}

func (w *hotLoad) setup() error {
	spec, err := w.buildSpec(w.sc)
	if err != nil {
		return err
	}
	w.spec = spec
	return buildFabric(spec)
}

func (w *hotLoad) call() hotOut {
	res, err := experiments.RunObserved(w.spec, nil)
	return hotOut{res: res, digest: resultDigest(res), err: err}
}

func (w *hotLoad) run() (sample, error) {
	var out hotOut
	s := measure(false, func() { out = w.call() })
	w.outs = append(w.outs, out)
	return s, nil
}

// verify requires every run's observables to hash to the pin and to
// the same run on the reference implementations.
func (w *hotLoad) verify() (attempted, failed int) {
	oracle, err := w.buildSpec(oracleScale(w.sc))
	want := ""
	if err == nil {
		var res experiments.RunResult
		res, err = experiments.Run(oracle)
		want = resultDigest(res)
	}
	if err == nil && offPin(w.pin, w.seed, want) {
		err = fmt.Errorf("reference implementations give %s, pinned %s", want, w.pin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: hotspot oracle:", err)
	}
	for _, o := range w.outs {
		attempted++
		if err != nil || o.err != nil || o.digest != want {
			fmt.Fprintf(os.Stderr, "perfbench: hotspot run: digest %s, want %s, err %v\n", o.digest, want, o.err)
			failed++
		}
	}
	return attempted, failed
}

func (w *hotLoad) trace(tr *tracer, m map[string]float64) (attempted, failed int, err error) {
	if err := w.setup(); err != nil {
		return 0, 0, err
	}
	var out hotOut
	wall := measure(false, func() { out = w.call() }).wall
	attempted = 1
	if out.err != nil || offPin(w.pin, w.seed, out.digest) {
		fmt.Fprintf(os.Stderr, "perfbench: hotspot run: digest %s, err %v\n", out.digest, out.err)
		failed++
	}
	spec := w.spec
	items := []item{{topo: w.topoSpec(), spec: spec, ref: func() (experiments.RunResult, error) { return experiments.Run(spec) }}}
	refs, a, f, err := traceItems(tr, items, wall, m)
	if err != nil {
		return 0, 0, err
	}
	if resultDigest(refs[0]) != out.digest {
		fmt.Fprintln(os.Stderr, "perfbench: RunObserved and Run disagree")
		failed++
	}
	m["model.accepted"] = out.res.AcceptedPerSwitch
	return attempted + a, failed + f, nil
}

// ---- faultcamp ----

// campLoad is a cold crash-tolerant campaign: campaign.Run spawning
// worker subprocesses into a fresh store, every job under the default
// fault campaign. It is the only workload where the campaign and fault
// layers do work.
type campLoad struct {
	specJSON []byte
	seed     uint64
	scratch  string
	pin      string

	plan *campaign.Plan
	outs []campOut
}

type campOut struct {
	table    []byte
	jobs     int
	attempts int // worker spawns
	failed   int // jobs the campaign could not complete
	retried  int
	torn     []string
	err      error
}

// newCampLoad encodes the campaign spec `ibbench -exp faults -topos 4
// -loads 6 -fractions 0,1 -emit-campaign` writes, with the workload seed
// as the fault seed (which links flap).
func newCampLoad(seed uint64, sz size, pin, scratch string) (*campLoad, error) {
	q := experiments.QuickScale()
	spec := campaign.Spec{
		Schema:            campaign.SpecSchemaVersion,
		Name:              "ibbench-quick",
		Sizes:             sz.campSizes,
		HostsPerSwitch:    q.HostsPerSw,
		Links:             4,
		MR:                2,
		PacketSizes:       q.PacketSizes,
		Patterns:          []string{"uniform"},
		AdaptiveFractions: []float64{0, 1},
		Seeds:             sz.campSeeds,
		FirstSeed:         q.FirstSeed,
		LoadLo:            q.LoadLo,
		LoadHi:            q.LoadHi,
		LoadPoints:        sz.campLoads,
		WarmupNs:          int64(q.Warmup),
		MeasureNs:         int64(q.Measure),
		DrainGraceNs:      int64(q.DrainGrace),
		Faults:            "rand:4:15000@50000-150000; autoreconfig:10000",
		FaultSeed:         seed,
		Exec:              experiments.ExecSpec{Engine: "seq", Sched: "calendar", Arb: "wake"},
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return &campLoad{specJSON: append(data, '\n'), seed: seed, scratch: scratch, pin: pin}, nil
}

func (w *campLoad) opSeconds() float64 { return 2.5 }
func (w *campLoad) setupReps() int     { return 200 }

func (w *campLoad) setup() error {
	spec, err := campaign.ParseSpec(w.specJSON)
	if err != nil {
		return err
	}
	w.plan, err = spec.Expand()
	return err
}

// campOptions runs one worker process per usable core, as the sweep
// pool and the in-process oracle size themselves.
func campOptions(log io.Writer) campaign.Options {
	return campaign.Options{Workers: runtime.GOMAXPROCS(0), Log: log}
}

// cold runs the whole plan into a fresh store, timing campaign.Run
// alone (with its worker processes' CPU). keep leaves the store for the
// caller to inspect and remove.
func (w *campLoad) cold(keep bool) (campOut, sample, *campaign.Store, error) {
	if err := os.MkdirAll(w.scratch, 0o755); err != nil {
		return campOut{}, sample{}, nil, err
	}
	dir, err := os.MkdirTemp(w.scratch, "store-")
	if err != nil {
		return campOut{}, sample{}, nil, err
	}
	store, err := campaign.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return campOut{}, sample{}, nil, err
	}
	var rep *campaign.Report
	var runErr error
	var peaks workerPeaks
	s := measure(true, func() { rep, runErr = campaign.Run(context.Background(), w.plan, store, campOptions(&peaks)) })
	s.workerKiB = peaks.kib
	out := campOut{jobs: len(w.plan.Jobs), err: runErr}
	if rep != nil {
		out.failed, out.retried, out.table = rep.Failed, rep.Retried, tableBytes(rep.Table)
		for _, oc := range rep.Outcomes {
			out.attempts += oc.Attempts
		}
	}
	if _, torn, verr := store.Verify(); verr != nil || len(torn) > 0 {
		out.torn = torn
		if out.err == nil {
			out.err = verr
		}
	}
	if !keep {
		if err := os.RemoveAll(dir); err != nil {
			return out, s, nil, err
		}
		store = nil
	}
	return out, s, store, nil
}

func (w *campLoad) run() (sample, error) {
	out, s, _, err := w.cold(false)
	w.outs = append(w.outs, out)
	return s, err
}

// executed is the in-process oracle's output for a plan.
type executed struct {
	results []experiments.RunResult
	tab     *campaign.Table
	table   []byte
	cpu     float64 // CPU seconds of all Executes
}

// execute is the `ibbench -exp campaign` oracle: every job through
// JobSpec.Execute in this process, then Aggregate over the encoded
// artifacts.
func execute(plan *campaign.Plan, workers int) (executed, error) {
	ex := executed{results: make([]experiments.RunResult, len(plan.Jobs))}
	errs := make([]error, len(plan.Jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	s := measure(false, func() {
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					ex.results[i], errs[i] = plan.Jobs[i].Spec.Execute()
				}
			}()
		}
		for i := range plan.Jobs {
			next <- i
		}
		close(next)
		wg.Wait()
	})
	ex.cpu = s.cpu
	bodies := make(map[string][]byte, len(plan.Jobs))
	for i, job := range plan.Jobs {
		if errs[i] != nil {
			return ex, fmt.Errorf("job %s: %w", job.Hash[:12], errs[i])
		}
		body, err := campaign.EncodeArtifact(job.Hash, ex.results[i])
		if err != nil {
			return ex, err
		}
		bodies[job.Hash] = body
	}
	table, err := campaign.Aggregate(plan, func(h string) ([]byte, error) {
		if b, ok := bodies[h]; ok {
			return b, nil
		}
		return nil, campaign.ErrNotFound
	}, false)
	if err != nil {
		return ex, err
	}
	ex.tab, ex.table = table, tableBytes(table)
	return ex, nil
}

// tableBytes renders a campaign table as ibcamp prints it; nil for no
// table. Writing to a bytes.Buffer cannot fail.
func tableBytes(t *campaign.Table) []byte {
	if t == nil {
		return nil
	}
	var buf bytes.Buffer
	t.Write(&buf)
	return buf.Bytes()
}

// campFactor is the adaptive throughput gain on the campaign's largest
// network: the best mean accepted traffic with all traffic adaptive
// over the best with none, plus that adaptive throughput.
func campFactor(t *campaign.Table) (factor, accepted float64) {
	big := 0
	for _, c := range t.Cells {
		big = max(big, c.Size)
	}
	var det, ada float64
	for _, c := range t.Cells {
		switch {
		case c.Size != big:
		case c.AdaptiveFraction == 0:
			det = max(det, c.AccAvg)
		case c.AdaptiveFraction == 1:
			ada = max(ada, c.AccAvg)
		}
	}
	return ratio(ada, det), ada
}

// verify requires every campaign to complete without retries or torn
// store files and to print the in-process oracle's table byte for byte
// (and, at the default seed, the pinned table). A failing campaign
// counts all of its jobs as failed.
func (w *campLoad) verify() (attempted, failed int) {
	ex, err := execute(w.plan, runtime.GOMAXPROCS(0))
	if err == nil && offPin(w.pin, w.seed, digest(ex.table)) {
		err = fmt.Errorf("in-process table %s, pinned %s", digest(ex.table), w.pin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: campaign oracle:", err)
	}
	for _, o := range w.outs {
		attempted += o.jobs
		if err != nil || campFailed(o, ex.table) {
			failed += o.jobs
		} else {
			failed += o.failed
		}
	}
	return attempted, failed
}

func campFailed(o campOut, want []byte) bool {
	if o.err != nil || o.retried > 0 || len(o.torn) > 0 || o.failed > 0 || !bytes.Equal(o.table, want) {
		fmt.Fprintf(os.Stderr, "perfbench: campaign: err %v, %d failed, %d retried, %d torn, table match %v\n",
			o.err, o.failed, o.retried, len(o.torn), bytes.Equal(o.table, want))
		return true
	}
	return false
}

// jobSpec rebuilds the RunSpec JobSpec.Execute simulates, so the traced
// run can replay it. The plan's jobs are uniform-traffic jobs on the
// sequential engine.
func jobSpec(j experiments.JobSpec) (topology.IrregularSpec, experiments.RunSpec, error) {
	ts := topology.IrregularSpec{NumSwitches: j.Switches, HostsPerSwitch: j.HostsPerSwitch, InterSwitch: j.Links, Seed: j.TopoSeed}
	if j.Pattern.Kind != "uniform" || j.Exec.Engine == "shard" {
		return ts, experiments.RunSpec{}, fmt.Errorf("job replay supports sequential uniform jobs, not %+v", j)
	}
	topo, err := topology.GenerateIrregular(ts)
	if err != nil {
		return ts, experiments.RunSpec{}, err
	}
	sc := experiments.Scale{Warmup: sim.Time(j.WarmupNs), Measure: sim.Time(j.MeasureNs), DrainGrace: sim.Time(j.DrainGraceNs), Arb: j.Exec.Arb, Unfused: j.Exec.Unfused}
	spec := sc.Spec(topo, j.MR, j.PacketSize, j.AdaptiveFraction, traffic.Uniform{NumHosts: topo.NumHosts()}, j.Seed, j.Enhanced)
	spec.Traffic.LoadBytesPerNsPerHost = j.Load
	if j.Faults != "" {
		camp, err := faults.Parse(j.Faults)
		if err != nil {
			return ts, experiments.RunSpec{}, err
		}
		spec.Faults, spec.FaultSeed = camp, j.FaultSeed
	}
	return ts, spec, nil
}

func dirKB(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return float64(n) / 1024
}

func (w *campLoad) trace(tr *tracer, m map[string]float64) (attempted, failed int, err error) {
	for i := 0; i < w.setupReps(); i++ {
		tr.do(-1, 0, "campaign.plan", func() { err = w.setup() })
		if err != nil {
			return 0, 0, err
		}
	}
	jobs := len(w.plan.Jobs)
	cold, s, store, err := w.cold(true)
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(store.Dir())
	m["campaign.jobs"] = float64(jobs)
	m["campaign.store_kb"] = dirKB(store.Dir())
	tr.do(-1, 0, "campaign.verify", func() { _, _, err = store.Verify() })
	if err != nil {
		return 0, 0, err
	}
	var warm *campaign.Report
	tr.do(-1, 0, "campaign.resume", func() { warm, err = campaign.Run(context.Background(), w.plan, store, campOptions(io.Discard)) })
	if err != nil {
		return 0, 0, err
	}
	m["campaign.cached"] = float64(warm.Cached)
	tr.do(-1, 0, "campaign.aggregate", func() { _, err = campaign.Aggregate(w.plan, store.Get, false) })
	if err != nil {
		return 0, 0, err
	}
	var injected, reconfigs, retries, dropped float64
	for _, job := range w.plan.Jobs {
		body, err := store.Get(job.Hash)
		if err != nil {
			return 0, 0, err
		}
		art, err := campaign.DecodeArtifact(body, job.Hash)
		if err != nil {
			return 0, 0, err
		}
		d := art.Result.Degraded
		injected += float64(d.FaultsInjected)
		reconfigs += float64(d.Reconfigs)
		retries += float64(d.Retries)
		dropped += float64(d.Dropped())
	}
	m["faults.injected"], m["faults.reconfigs"], m["faults.retries"], m["faults.dropped"] = injected, reconfigs, retries, dropped

	ex, err := execute(w.plan, 1)
	if err != nil {
		return 0, 0, err
	}
	m["campaign.exec_cpu_s"] = ex.cpu
	m["campaign.overhead_ms_per_job"] = (s.cpu - ex.cpu) / float64(jobs) * 1e3
	m["campaign.attempts"] = float64(cold.attempts)
	attempted = jobs
	if campFailed(cold, ex.table) || !bytes.Equal(tableBytes(warm.Table), ex.table) ||
		offPin(w.pin, w.seed, digest(ex.table)) {
		fmt.Fprintln(os.Stderr, "perfbench: campaign tables differ from the oracle or the pin")
		failed = jobs
	}
	m["model.factor"], m["model.accepted"] = campFactor(ex.tab)

	var items []item
	for _, job := range w.plan.Jobs {
		ts, spec, err := jobSpec(job.Spec)
		if err != nil {
			return 0, 0, err
		}
		items = append(items, item{topo: ts, spec: spec, ref: func() (experiments.RunResult, error) { return experiments.Run(spec) }})
	}
	refs, a, f, err := traceItems(tr, items, s.wall, m)
	if err != nil {
		return 0, 0, err
	}
	for i := range refs {
		if !reflect.DeepEqual(refs[i], ex.results[i]) {
			fmt.Fprintf(os.Stderr, "perfbench: job %d: experiments.Run and JobSpec.Execute disagree\n", i)
			failed++
		}
	}
	m["campaign.plan_ms"] = median(tr.selfMs("campaign.plan"))
	m["campaign.verify_ms"] = median(tr.selfMs("campaign.verify"))
	m["campaign.resume_ms"] = median(tr.selfMs("campaign.resume"))
	m["campaign.aggregate_ms"] = median(tr.selfMs("campaign.aggregate"))
	return attempted + a, failed + f, nil
}
