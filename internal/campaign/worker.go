package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"ibasim/internal/experiments"
)

// Worker protocol. The coordinator re-execs this binary as
// `ibcamp worker` with the JobSpec JSON on stdin and one environment
// knob:
//
//	IBCAMP_HB_MS   heartbeat interval in ms (default 500)
//
// The worker emits "hb\n" on stdout immediately and then every
// interval while the simulation runs, prints "ok <artifact>\n" — the
// job's encoded artifact (EncodeArtifact, one line of JSON) — and
// exits 0. Everything human-readable goes to stderr. The worker never
// opens the result store: the coordinator verifies the artifact
// against the job's hash and is the store's only writer, so a panic,
// OOM kill or SIGKILL costs exactly one attempt of one job and leaves
// no file behind — the coordinator's watchdog sees the heartbeats stop
// and retries.

// DefaultHeartbeat is the worker heartbeat interval when IBCAMP_HB_MS
// is unset.
const DefaultHeartbeat = 500 * time.Millisecond

// WorkerMain is the `ibcamp worker` entry point; returns the process
// exit code. Exit 2 marks protocol/spec errors (not worth retrying in
// principle, though the coordinator treats every nonzero exit the
// same: retry up to the budget).
func WorkerMain(stdin io.Reader, stdout, stderr io.Writer) int {
	hb := DefaultHeartbeat
	if ms := os.Getenv("IBCAMP_HB_MS"); ms != "" {
		v, err := strconv.Atoi(ms)
		if err != nil || v <= 0 {
			fmt.Fprintf(stderr, "ibcamp worker: bad IBCAMP_HB_MS %q\n", ms)
			return 2
		}
		hb = time.Duration(v) * time.Millisecond
	}
	data, err := io.ReadAll(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "ibcamp worker: reading job:", err)
		return 2
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var job experiments.JobSpec
	if err := dec.Decode(&job); err != nil {
		fmt.Fprintln(stderr, "ibcamp worker: bad job JSON:", err)
		return 2
	}
	job.Normalize()
	if err := job.Validate(); err != nil {
		fmt.Fprintln(stderr, "ibcamp worker:", err)
		return 2
	}
	hash := job.Hash()

	// stdout is the protocol channel; one mutex serializes heartbeats
	// against the final ok line.
	var mu sync.Mutex
	emit := func(line string) {
		mu.Lock()
		fmt.Fprintln(stdout, line)
		mu.Unlock()
	}

	emit("hb")
	stop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(hb)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				emit("hb")
			case <-stop:
				return
			}
		}
	}()

	res, runErr := job.Execute()
	close(stop)
	hbWG.Wait()
	if runErr != nil {
		fmt.Fprintln(stderr, "ibcamp worker:", runErr)
		return 1
	}
	body, err := EncodeArtifact(hash, res)
	if err != nil {
		fmt.Fprintln(stderr, "ibcamp worker: encoding artifact:", err)
		return 1
	}
	emit("ok " + string(body))
	return 0
}
