package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain doubles as the worker re-exec shim: when a coordinator
// under test spawns this test binary with IBCAMP_TEST_WORKER set, the
// process becomes a campaign worker (or a misbehaving stand-in)
// instead of running the suite — the same process-isolation boundary
// ibcamp relies on, so tests can SIGKILL workers without touching the
// test process.
func TestMain(m *testing.M) {
	switch os.Getenv("IBCAMP_TEST_WORKER") {
	case "worker":
		os.Exit(WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	case "held":
		os.Exit(WorkerMain(os.Stdin, heldWriter{w: os.Stdout, release: os.Getenv("IBCAMP_TEST_RELEASE")}, os.Stderr))
	case "fail":
		fmt.Fprintln(os.Stderr, "ibcamp test worker: induced failure")
		os.Exit(1)
	case "hang":
		// No heartbeat, no exit: the hung-worker watchdog's prey.
		time.Sleep(time.Minute)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testOpts builds coordinator options that re-exec this test binary in
// the given worker mode, with fast heartbeats and tight backoff.
func testOpts(t *testing.T, mode string) Options {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Workers:     2,
		Timeout:     time.Minute,
		Retries:     2,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		HungAfter:   10 * time.Second,
		WorkerCmd:   []string{exe},
		Env:         []string{"IBCAMP_TEST_WORKER=" + mode, "IBCAMP_HB_MS=10"},
		Log:         &testLogWriter{t: t},
	}
}

// heldWriter holds a worker's ok line until the release file exists,
// so a test can kill a worker before any worker reports its result.
type heldWriter struct {
	w       io.Writer
	release string
}

func (h heldWriter) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("ok ")) {
		for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if _, err := os.Stat(h.release); err == nil {
				break
			}
		}
	}
	return h.w.Write(p)
}

type testLogWriter struct{ t *testing.T }

func (w *testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

func testPlan(t *testing.T) *Plan {
	t.Helper()
	spec, err := ParseSpec([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func tableBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	if rep.Table == nil {
		t.Fatal("report has no table")
	}
	var buf bytes.Buffer
	if err := rep.Table.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCampaignEndToEnd: a two-job campaign completes through real
// worker subprocesses, the rerun serves everything from the store, and
// both aggregate byte-identically.
func TestCampaignEndToEnd(t *testing.T) {
	plan := testPlan(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), plan, st, testOpts(t, "worker"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != len(plan.Jobs) || rep.Cached != 0 {
		t.Fatalf("first run: done=%d cached=%d, want %d/0", rep.Done, rep.Cached, len(plan.Jobs))
	}
	first := tableBytes(t, rep)

	rep2, err := Run(context.Background(), plan, st, testOpts(t, "worker"))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Done != 0 || rep2.Cached != len(plan.Jobs) {
		t.Fatalf("rerun: done=%d cached=%d, want 0/%d", rep2.Done, rep2.Cached, len(plan.Jobs))
	}
	if !bytes.Equal(first, tableBytes(t, rep2)) {
		t.Fatalf("cached rerun table differs:\n%s\nvs\n%s", first, tableBytes(t, rep2))
	}
	if n, torn, err := st.Verify(); err != nil || n != len(plan.Jobs) || len(torn) != 0 {
		t.Fatalf("Verify = (%d, %v, %v)", n, torn, err)
	}
}

// TestWorkerSIGKILLMidJobRetriesCleanly is the crash-path acceptance
// test: SIGKILL a worker mid-job and require (a) the job is retried
// and the campaign completes, (b) the store holds no torn or invalid
// artifact, and (c) the resumed campaign's aggregate is byte-identical
// to an uninterrupted run's.
func TestWorkerSIGKILLMidJobRetriesCleanly(t *testing.T) {
	plan := testPlan(t)

	cleanStore, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cleanRep, err := Run(context.Background(), plan, cleanStore, testOpts(t, "worker"))
	if err != nil {
		t.Fatal(err)
	}
	clean := tableBytes(t, cleanRep)

	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Workers hold their ok lines until the release file exists, and
	// the first heartbeat kills its worker before creating it: the kill
	// always lands mid-job, however fast the job runs.
	release := filepath.Join(t.TempDir(), "release")
	opts := testOpts(t, "held")
	opts.Env = append(opts.Env, "IBCAMP_TEST_RELEASE="+release)
	var killed atomic.Bool
	opts.hooks.onHeartbeat = func(hash string, attempt int, cmd *exec.Cmd) {
		if killed.CompareAndSwap(false, true) {
			if err := cmd.Process.Kill(); err != nil {
				t.Errorf("kill: %v", err)
			}
			if err := os.WriteFile(release, nil, 0o644); err != nil {
				t.Errorf("release: %v", err)
			}
		}
	}
	rep, err := Run(context.Background(), plan, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !killed.Load() {
		t.Fatal("test never killed a worker")
	}
	if rep.Retried < 1 {
		t.Fatalf("killed worker was not retried: %+v", rep.Outcomes)
	}
	if rep.Done != len(plan.Jobs) {
		t.Fatalf("campaign did not complete: %+v", rep)
	}
	n, torn, err := st.Verify()
	if err != nil {
		t.Fatalf("store corrupt after SIGKILL: %v", err)
	}
	if len(torn) != 0 {
		t.Fatalf("torn artifacts after SIGKILL: %v", torn)
	}
	if n != len(plan.Jobs) {
		t.Fatalf("store holds %d entries, want %d", n, len(plan.Jobs))
	}
	if got := tableBytes(t, rep); !bytes.Equal(clean, got) {
		t.Fatalf("post-crash aggregate differs from clean run:\n%s\nvs\n%s", clean, got)
	}
}

// TestResumeSkipsPrepopulatedJobs: results landed by an earlier
// (interrupted) campaign — here, a worker run in-process — are served
// from the store and the finished table still matches a clean run.
func TestResumeSkipsPrepopulatedJobs(t *testing.T) {
	plan := testPlan(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Complete job 0 the way a coordinator would, then "crash" (do
	// nothing else). WorkerMain is the real entry point, run
	// in-process; its ok line carries the artifact the coordinator
	// verifies and stores.
	input, err := json.Marshal(plan.Jobs[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := WorkerMain(bytes.NewReader(input), &out, &errb); code != 0 {
		t.Fatalf("WorkerMain = %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	body, ok := strings.CutPrefix(lines[len(lines)-1], "ok ")
	if !ok {
		t.Fatalf("worker protocol output missing ok line: %q", out.String())
	}
	if _, err := DecodeArtifact([]byte(body), plan.Jobs[0].Hash); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(plan.Jobs[0].Hash, []byte(body)); err != nil {
		t.Fatal(err)
	}

	rep, err := Run(context.Background(), plan, st, testOpts(t, "worker"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cached != 1 || rep.Done != len(plan.Jobs)-1 {
		t.Fatalf("resume: cached=%d done=%d, want 1/%d", rep.Cached, rep.Done, len(plan.Jobs)-1)
	}

	cleanStore, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cleanRep, err := Run(context.Background(), plan, cleanStore, testOpts(t, "worker"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tableBytes(t, cleanRep), tableBytes(t, rep)) {
		t.Fatal("resumed table differs from clean run")
	}
}

// TestCorruptEntryIsEvictedAndRerun: a bit-flipped artifact must not
// be served; the coordinator evicts and reruns it.
func TestCorruptEntryIsEvictedAndRerun(t *testing.T) {
	plan := testPlan(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), plan, st, testOpts(t, "worker")); err != nil {
		t.Fatal(err)
	}
	path := st.entryPath(plan.Jobs[0].Hash)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), plan, st, testOpts(t, "worker"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 1 || rep.Cached != len(plan.Jobs)-1 {
		t.Fatalf("corrupt entry not rerun: done=%d cached=%d", rep.Done, rep.Cached)
	}
	if _, _, err := st.Verify(); err != nil {
		t.Fatalf("store still corrupt: %v", err)
	}
}

// TestDegradeModeAnnotatesMissing: with every worker failing, degrade
// mode still aggregates — empty cells carry explicit missing-seed
// annotations instead of numbers.
func TestDegradeModeAnnotatesMissing(t *testing.T) {
	plan := testPlan(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts(t, "fail")
	opts.Retries = -1 // single attempt per job
	opts.Degrade = true
	rep, err := Run(context.Background(), plan, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != len(plan.Jobs) {
		t.Fatalf("failed=%d, want %d", rep.Failed, len(plan.Jobs))
	}
	cell := rep.Table.Cells[0]
	if cell.N != 0 || len(cell.MissingSeeds) != 2 {
		t.Fatalf("cell = %+v, want 0 results and 2 missing seeds", cell)
	}
	out := string(tableBytes(t, rep))
	if !strings.Contains(out, "0/2\t1,2\t-\t-\t-\t-\t-\t-") {
		t.Fatalf("degraded table lacks the missing annotation:\n%s", out)
	}
}

// TestFailedJobsFailTheCampaignWithoutDegrade: exhausting the retry
// budget is an error unless degrade was requested, and the message
// points at resume.
func TestFailedJobsFailTheCampaignWithoutDegrade(t *testing.T) {
	plan := testPlan(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts(t, "fail")
	opts.Retries = -1
	rep, err := Run(context.Background(), plan, st, opts)
	if err == nil || !strings.Contains(err.Error(), "exhausted their retry budget") {
		t.Fatalf("Run = %v, want retry-budget error", err)
	}
	if rep == nil || rep.Failed != len(plan.Jobs) {
		t.Fatalf("report = %+v", rep)
	}
}

// TestHungWorkerIsKilled: a worker that stops heartbeating is killed
// by the watchdog and the attempt is classified as hung.
func TestHungWorkerIsKilled(t *testing.T) {
	plan := testPlan(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts(t, "hang")
	opts.Retries = -1
	opts.HungAfter = 50 * time.Millisecond
	opts.Degrade = true
	rep, err := Run(context.Background(), plan, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range rep.Outcomes {
		if oc.Status != "failed" || !strings.Contains(oc.Err, "hung") {
			t.Fatalf("outcome = %+v, want hung failure", oc)
		}
	}
}

// TestAttemptTimeoutKills: the per-attempt wall clock fires even when
// heartbeats keep the hang watchdog quiet — here the inverse: a silent
// worker against a generous hang budget still dies at the timeout.
func TestAttemptTimeoutKills(t *testing.T) {
	plan := testPlan(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts(t, "hang")
	opts.Retries = -1
	opts.Timeout = 50 * time.Millisecond
	opts.HungAfter = time.Minute
	opts.Degrade = true
	rep, err := Run(context.Background(), plan, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range rep.Outcomes {
		if oc.Status != "failed" || !strings.Contains(oc.Err, "timeout") {
			t.Fatalf("outcome = %+v, want timeout failure", oc)
		}
	}
}

// TestInterruptedRunReportsResumable: a canceled context ends the
// campaign with a resumable error, not a table.
func TestInterruptedRunReportsResumable(t *testing.T) {
	plan := testPlan(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, plan, st, testOpts(t, "worker"))
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("Run on canceled ctx = %v, want interrupted error", err)
	}
	if rep.Skipped != len(plan.Jobs) {
		t.Fatalf("skipped=%d, want %d", rep.Skipped, len(plan.Jobs))
	}
}

// TestBackoffDelayDeterministicAndBounded: the jittered backoff is a
// pure function of (hash, attempt) and stays within [base/2, max].
func TestBackoffDelayDeterministicAndBounded(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	h1, h2 := testHash(1), testHash(2)
	for attempt := 1; attempt <= 8; attempt++ {
		d := backoffDelay(h1, attempt, base, max)
		if d != backoffDelay(h1, attempt, base, max) {
			t.Fatalf("backoff not deterministic at attempt %d", attempt)
		}
		if d < base/2 || d > max {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, base/2, max)
		}
	}
	if backoffDelay(h1, 1, base, max) == backoffDelay(h2, 1, base, max) {
		t.Fatal("different jobs share a jitter (suspicious; seeds should decorrelate)")
	}
}

// TestBackoffNoneWaitsZero pins the computed delay of a negative
// backoff, which asks for none (ibcamp run -backoff 0 -backoff-max 0):
// every retry waits exactly zero, while a zero field still takes the
// default. The delay is computed, not timed.
func TestBackoffNoneWaitsZero(t *testing.T) {
	h := testHash(1)
	for _, o := range []Options{
		{BackoffBase: -1, BackoffMax: -1},
		{BackoffBase: -1},
		{BackoffMax: -1},
	} {
		d := o.withDefaults()
		for attempt := 1; attempt <= 8; attempt++ {
			if got := backoffDelay(h, attempt, d.BackoffBase, d.BackoffMax); got != 0 {
				t.Fatalf("backoff %v, ceiling %v: attempt %d waits %v, want 0", o.BackoffBase, o.BackoffMax, attempt, got)
			}
		}
	}
	def := DefaultOptions()
	if d := (Options{}).withDefaults(); d.BackoffBase != def.BackoffBase || d.BackoffMax != def.BackoffMax {
		t.Fatalf("zero options: backoff %v, ceiling %v; want the defaults %v, %v", d.BackoffBase, d.BackoffMax, def.BackoffBase, def.BackoffMax)
	}
	if got := backoffDelay(h, 1, def.BackoffBase, def.BackoffMax); got < def.BackoffBase/2 {
		t.Fatalf("default first retry waits %v, want at least %v", got, def.BackoffBase/2)
	}
}

// parentArtifact is tinySpec's first job encoded by the simulator
// before the sharded engine was removed. Stored artifacts carry the
// "ShardStats":null key, so it must still decode under the strict
// decoder, re-encode to the same bytes, and match a fresh run.
const (
	parentHash     = "584d03a83c10bb24acf3c53619f7f056115c9bb0a23545ef10a319f69bd51bf1"
	parentArtifact = `{"schema":1,"input":"584d03a83c10bb24acf3c53619f7f056115c9bb0a23545ef10a319f69bd51bf1","result":{"OfferedPerSwitch":0.04,"AcceptedPerSwitch":0.036,"AvgLatencyNs":691.2441860465116,"P99LatencyNs":2048,"PacketsMeasured":86,"OutOfOrderFraction":0,"ReorderPeakHeld":0,"ReorderAvgDelayNs":0,"Retry":{"Retries":0,"Lost":0,"DroppedTimeout":0,"MaxAttempts":0,"BackoffCapNs":0},"Degraded":{"FaultsInjected":0,"Repairs":0,"Reconfigs":0,"DroppedUnroutable":0,"DroppedOnDeadPort":0,"DroppedTimeout":0,"Retries":0,"Lost":0,"RerouteDrops":0,"RecoveryLatencyNs":0,"WatchdogSamples":0,"WatchdogViolations":0,"FirstViolation":""},"Audit":{"HopChecks":266,"HeavyTicks":0,"Violations":0,"First":""},"ShardStats":null}}`
)

// TestParentArtifactDecodes: artifacts already in users' stores stay
// valid — same content address, same decoded result, same bytes.
func TestParentArtifactDecodes(t *testing.T) {
	checkStoredArtifact(t, testPlan(t).Jobs[0], parentHash, parentArtifact)
}

// faultSpec is the campaign `ibbench -exp faults -topos 4 -loads 6
// -fractions 0,1 -emit-campaign FILE` writes: 96 jobs at 8 and 16
// switches under four random link failures with staged recovery.
const faultSpec = `{
  "schema": 1,
  "name": "ibbench-quick",
  "sizes": [8, 16],
  "hostsPerSwitch": 4,
  "links": 4,
  "mr": 2,
  "packetSizes": [32],
  "patterns": ["uniform"],
  "adaptiveFractions": [0, 1],
  "seeds": 4,
  "firstSeed": 1,
  "loadLo": 0.004,
  "loadHi": 0.1,
  "loadPoints": 6,
  "warmupNs": 30000,
  "measureNs": 150000,
  "drainGraceNs": 30000,
  "faults": "rand:4:15000@50000-150000; autoreconfig:10000",
  "faultSeed": 1,
  "exec": {"engine": "seq", "sched": "calendar", "arb": "wake"}
}`

// faultArtifact is job 67 of faultSpec (16 switches, 0 % adaptive,
// 0.0525 B/ns/host, topology seed 4), as stored before source-queue
// entries shrank to one word. Its watchdog violation names a packet
// ID, so a change that renumbers packets moves it: such a change must
// bump JobSchemaVersion.
const (
	faultHash     = "2d45b810aa604282c5627c2dcfb2639ed17f17b8077fe67fea7e90efe4eb2890"
	faultArtifact = `{"schema":1,"input":"2d45b810aa604282c5627c2dcfb2639ed17f17b8077fe67fea7e90efe4eb2890","result":{"OfferedPerSwitch":0.21012222435230143,"AcceptedPerSwitch":0.10098666666666667,"AvgLatencyNs":44798.23366805822,"P99LatencyNs":262144,"PacketsMeasured":8863,"OutOfOrderFraction":0.0003341966747430863,"ReorderPeakHeld":70,"ReorderAvgDelayNs":351.2,"Retry":{"Retries":1779,"Lost":0,"DroppedTimeout":1779,"MaxAttempts":1,"BackoffCapNs":64000},"Degraded":{"FaultsInjected":4,"Repairs":4,"Reconfigs":8,"DroppedUnroutable":0,"DroppedOnDeadPort":0,"DroppedTimeout":1779,"Retries":1779,"Lost":0,"RerouteDrops":0,"RecoveryLatencyNs":31004,"WatchdogSamples":42,"WatchdogViolations":1,"FirstViolation":"faults: watchdog: forward-progress at t=160000: switch 8 port 3: head packet 3001 stuck for 100000ns (depth 16)"},"Audit":{"HopChecks":36818,"HeavyTicks":0,"Violations":0,"First":""},"ShardStats":null}}`
)

// TestParentArtifactNamesPacketID: a stored artifact whose result
// names a packet ID ("head packet 3001") stays valid, and a fresh run
// reproduces it byte for byte.
func TestParentArtifactNamesPacketID(t *testing.T) {
	spec, err := ParseSpec([]byte(faultSpec))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(faultArtifact, "head packet 3001 stuck") {
		t.Fatal("the pinned artifact no longer names a packet ID")
	}
	checkStoredArtifact(t, plan.Jobs[67], faultHash, faultArtifact)
}

// checkStoredArtifact requires job to keep its content address hash,
// artifact to decode under the strict decoder and re-encode to the
// same bytes, and a fresh run of job to encode to them too.
func checkStoredArtifact(t *testing.T, job Job, hash, artifact string) {
	t.Helper()
	if job.Hash != hash {
		t.Fatalf("content address moved: %s, want %s", job.Hash, hash)
	}
	a, err := DecodeArtifact([]byte(artifact), hash)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeArtifact(hash, a.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != artifact {
		t.Fatalf("re-encoded artifact differs:\n%s\nvs\n%s", again, artifact)
	}
	res, err := job.Spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := EncodeArtifact(hash, res)
	if err != nil {
		t.Fatal(err)
	}
	if string(fresh) != artifact {
		t.Fatalf("fresh run's artifact differs:\n%s\nvs\n%s", fresh, artifact)
	}
}
