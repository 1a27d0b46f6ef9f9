package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ibasim/internal/sim"
)

// Options tunes the coordinator. The zero value is usable: a zero
// field takes its value from DefaultOptions.
type Options struct {
	// Workers is the number of concurrent worker processes.
	Workers int
	// Timeout is the per-attempt wall-clock budget; a worker past it is
	// killed and the attempt counts as failed.
	Timeout time.Duration
	// Retries is the per-job retry budget after the first attempt. Zero
	// takes the default; a negative value means no retry.
	Retries int
	// BackoffBase/BackoffMax shape the exponential backoff between
	// attempts: base doubles per retry, saturates at max, and a
	// deterministic jitter (seeded from the job hash and attempt) keeps
	// co-failing jobs from re-spawning in lockstep. Zero takes the
	// default; a negative value means no wait.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HungAfter kills a worker whose stdout heartbeat goes silent this
	// long. This is the layer that catches SIGKILLed, OOM-killed and
	// wedged processes; it sits above the per-job Timeout (live-lock)
	// and the in-sim deadlock watchdog (model wedges), each of which
	// catches what the others cannot.
	HungAfter time.Duration
	// Degrade aggregates whatever completed instead of failing the
	// campaign when jobs exhaust their retry budget; missing seeds are
	// annotated per cell in the table.
	Degrade bool
	// WorkerCmd overrides the worker argv (default: this executable
	// with the single argument "worker"). Tests point it at the test
	// binary's re-exec shim.
	WorkerCmd []string
	// Env appends extra environment entries to spawned workers.
	Env []string
	// Log receives human-readable progress; default discard. Never
	// write the table here — stdout must stay byte-stable.
	Log io.Writer

	hooks testHooks
}

// testHooks give the crash tests surgical access to worker processes.
type testHooks struct {
	// onSpawn runs after a worker starts, before its output is read.
	onSpawn func(hash string, attempt int, cmd *exec.Cmd)
	// onHeartbeat runs on every heartbeat line.
	onHeartbeat func(hash string, attempt int, cmd *exec.Cmd)
}

// DefaultOptions returns the coordinator's defaults: 2 workers, a 5m
// attempt timeout, 2 retries (so up to 3 attempts), 250ms backoff
// doubling up to 10s, and a 10s heartbeat silence limit.
func DefaultOptions() Options {
	return Options{
		Workers:     2,
		Timeout:     5 * time.Minute,
		Retries:     2,
		BackoffBase: 250 * time.Millisecond,
		BackoffMax:  10 * time.Second,
		HungAfter:   10 * time.Second,
	}
}

func (o Options) withDefaults() Options {
	def := DefaultOptions()
	if o.Workers <= 0 {
		o.Workers = def.Workers
	}
	if o.Timeout <= 0 {
		o.Timeout = def.Timeout
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = def.Retries
	}
	if o.BackoffBase < 0 {
		o.BackoffBase = 0
	} else if o.BackoffBase == 0 {
		o.BackoffBase = def.BackoffBase
	}
	if o.BackoffMax < 0 {
		o.BackoffMax = 0
	} else if o.BackoffMax == 0 {
		o.BackoffMax = def.BackoffMax
	}
	if o.HungAfter <= 0 {
		o.HungAfter = def.HungAfter
	}
	if len(o.WorkerCmd) == 0 {
		exe, err := os.Executable()
		if err != nil {
			exe = os.Args[0]
		}
		o.WorkerCmd = []string{exe, "worker"}
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	o.Log = &syncWriter{w: o.Log}
	return o
}

// syncWriter serializes concurrent log writes from the worker pool.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// Outcome records how one planned job ended.
type Outcome struct {
	Hash     string
	Status   string // "cached", "done", "failed", "skipped"
	Attempts int
	Err      string // last attempt's error for failed/skipped
}

// Report is the campaign run's summary: per-job outcomes (aligned with
// Plan.Jobs), tallies, and the aggregate table when one was computed.
type Report struct {
	Outcomes []Outcome
	Cached   int // valid store entries skipped (resume/dedup)
	Done     int // jobs completed this run
	Failed   int // jobs that exhausted their retry budget
	Skipped  int // jobs not attempted (interrupt)
	Retried  int // extra attempts beyond the first, summed

	Table *Table
}

// Run executes the plan to completion (or interruption): sweeps torn
// temp files, skips every job whose result is already stored and
// verified, evicts corrupt entries for rerun, fans the rest out to
// Workers subprocesses with retry/timeout/hang policies, and — when
// everything needed is present — aggregates the table.
//
// On ctx cancellation Run kills its workers and returns the partial
// report with ctx's error; completed results are durable, so rerunning
// the same plan against the same store resumes where it left off.
func Run(ctx context.Context, plan *Plan, store *Store, opts Options) (*Report, error) {
	o := opts.withDefaults()
	swept, err := store.SweepTorn()
	if err != nil {
		return nil, err
	}
	rep := &Report{Outcomes: make([]Outcome, len(plan.Jobs))}
	if len(swept) > 0 {
		fmt.Fprintf(o.Log, "ibcamp: swept %d torn temp file(s)\n", len(swept))
	}

	var todo []int
	for i, job := range plan.Jobs {
		rep.Outcomes[i].Hash = job.Hash
		_, gerr := store.Get(job.Hash)
		switch {
		case gerr == nil:
			rep.Outcomes[i].Status = "cached"
		case errors.Is(gerr, ErrNotFound):
			todo = append(todo, i)
		case errors.Is(gerr, ErrCorrupt):
			fmt.Fprintf(o.Log, "ibcamp: evicting corrupt entry %s: %v\n", job.Hash[:12], gerr)
			if rerr := store.Remove(job.Hash); rerr != nil {
				return nil, rerr
			}
			todo = append(todo, i)
		default:
			return nil, gerr
		}
	}
	fmt.Fprintf(o.Log, "ibcamp: %d job(s): %d cached, %d to run on %d worker(s)\n",
		len(plan.Jobs), len(plan.Jobs)-len(todo), len(todo), o.Workers)

	jobs := make(chan int)
	go func() {
		defer close(jobs)
		for _, idx := range todo {
			select {
			case jobs <- idx:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				// Outcome slots are disjoint per index; no lock needed.
				rep.Outcomes[idx] = o.runJob(ctx, store, plan.Jobs[idx])
			}
		}()
	}
	wg.Wait()

	for i := range rep.Outcomes {
		oc := &rep.Outcomes[i]
		if oc.Status == "" { // never dequeued (interrupt)
			oc.Status = "skipped"
		}
		switch oc.Status {
		case "cached":
			rep.Cached++
		case "done":
			rep.Done++
		case "failed":
			rep.Failed++
		case "skipped":
			rep.Skipped++
		}
		if oc.Attempts > 1 {
			rep.Retried += oc.Attempts - 1
		}
	}

	if err := ctx.Err(); err != nil {
		return rep, fmt.Errorf("campaign: interrupted (%d done, %d cached, %d pending): %w",
			rep.Done, rep.Cached, rep.Failed+rep.Skipped, err)
	}
	if rep.Failed > 0 && !o.Degrade {
		var names []string
		for _, oc := range rep.Outcomes {
			if oc.Status == "failed" {
				names = append(names, fmt.Sprintf("%s (%s)", oc.Hash[:12], oc.Err))
				if len(names) == 4 {
					names = append(names, "...")
					break
				}
			}
		}
		return rep, fmt.Errorf("campaign: %d job(s) exhausted their retry budget: %s (completed results are stored; rerun to retry, or pass degrade to aggregate partials)",
			rep.Failed, strings.Join(names, ", "))
	}
	table, err := Aggregate(plan, store.Get, o.Degrade)
	if err != nil {
		return rep, err
	}
	rep.Table = table
	return rep, nil
}

// runJob drives one job through its attempt/backoff loop.
func (o Options) runJob(ctx context.Context, st *Store, job Job) Outcome {
	oc := Outcome{Hash: job.Hash}
	input, err := json.Marshal(job.Spec)
	if err != nil {
		oc.Status, oc.Err = "failed", err.Error()
		return oc
	}
	maxAttempts := 1 + o.Retries
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if ctx.Err() != nil {
			oc.Status, oc.Err = "skipped", ctx.Err().Error()
			return oc
		}
		oc.Attempts = attempt
		err := o.runAttempt(ctx, st, job, input, attempt)
		if err == nil {
			oc.Status = "done"
			return oc
		}
		oc.Err = err.Error()
		if ctx.Err() != nil {
			oc.Status = "skipped"
			return oc
		}
		fmt.Fprintf(o.Log, "ibcamp: job %s attempt %d/%d failed: %v\n", job.Hash[:12], attempt, maxAttempts, err)
		if attempt < maxAttempts {
			select {
			case <-ctx.Done():
				oc.Status = "skipped"
				return oc
			case <-time.After(backoffDelay(job.Hash, attempt, o.BackoffBase, o.BackoffMax)):
			}
		}
	}
	oc.Status = "failed"
	return oc
}

// maxArtifactLine bounds the worker's ok line. Artifacts are about a
// kilobyte; the bound only keeps a runaway worker from exhausting the
// coordinator's memory.
const maxArtifactLine = 16 << 20

// runAttempt spawns one worker process for the job and supervises it.
// The attempt succeeds iff the worker's ok line carries an artifact
// that decodes against the job's hash; the coordinator then stores it
// with an atomic Put. Workers never write the store, so every crash
// mode is safe: a worker killed before its ok line is a clean failure,
// one killed after it still succeeds, and neither leaves a file behind.
func (o Options) runAttempt(ctx context.Context, st *Store, job Job, input []byte, attempt int) error {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	var timedOut, hung atomic.Bool
	tmo := time.AfterFunc(o.Timeout, func() { timedOut.Store(true); cancel() })
	defer tmo.Stop()

	cmd := exec.CommandContext(actx, o.WorkerCmd[0], o.WorkerCmd[1:]...)
	cmd.Env = append(os.Environ(), o.Env...)
	cmd.Stdin = bytes.NewReader(input)
	cmd.Stderr = o.Log
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	// The hung-worker watchdog arms at spawn and re-arms per heartbeat;
	// firing cancels actx, which kills the process group member.
	hang := time.AfterFunc(o.HungAfter, func() { hung.Store(true); cancel() })
	defer hang.Stop()
	if o.hooks.onSpawn != nil {
		o.hooks.onSpawn(job.Hash, attempt, cmd)
	}

	var body []byte
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, maxArtifactLine)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case string(line) == "hb":
			hang.Reset(o.HungAfter)
			if o.hooks.onHeartbeat != nil {
				o.hooks.onHeartbeat(job.Hash, attempt, cmd)
			}
		case bytes.HasPrefix(line, []byte("ok ")):
			body = append([]byte(nil), line[len("ok "):]...)
		}
	}
	werr := cmd.Wait()

	if body != nil {
		if _, err := DecodeArtifact(body, job.Hash); err != nil {
			return fmt.Errorf("worker reported an unusable artifact: %v", err)
		}
		return st.Put(job.Hash, body)
	}
	switch {
	case hung.Load():
		return fmt.Errorf("worker hung: no heartbeat for %v", o.HungAfter)
	case timedOut.Load():
		return fmt.Errorf("worker exceeded the %v attempt timeout", o.Timeout)
	case werr != nil:
		return fmt.Errorf("worker: %v", werr)
	case sc.Err() != nil:
		return fmt.Errorf("reading worker output: %v", sc.Err())
	default:
		return fmt.Errorf("worker exited without reporting a result")
	}
}

// backoffDelay computes the wait before retry number attempt+1:
// BackoffBase doubled per prior attempt, saturated at BackoffMax, with
// a deterministic jitter drawn from the job hash and attempt number —
// reproducible (no wall-clock entropy) yet decorrelated across jobs,
// so a burst of co-failing jobs doesn't re-spawn in lockstep.
func backoffDelay(hash string, attempt int, base, max time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt; i++ {
		if d >= max/2 {
			d = max
			break
		}
		d *= 2
	}
	if d > max {
		d = max
	}
	var seed uint64
	if raw, err := hex.DecodeString(hash[:16]); err == nil && len(raw) == 8 {
		seed = binary.BigEndian.Uint64(raw)
	}
	rng := sim.NewRNG(seed ^ uint64(attempt)*0x9E3779B97F4A7C15)
	if half := d / 2; half > 0 {
		d = half + time.Duration(rng.Uint64()%uint64(half))
	}
	return d
}
