package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ibasim/internal/campaign"
)

// TestMain doubles as a failing worker: the coordinator re-execs its
// own executable as "<exe> worker", which under test is this binary.
// Every attempt then fails at once, so the tests can count attempts
// without depending on timing.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		fmt.Fprintln(os.Stderr, "ibcamp test worker: induced failure")
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// oneJobSpec writes a campaign spec that expands to a single job.
func oneJobSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "camp.json")
	spec := `{"name":"one","sizes":[8],"links":4,"mr":2,"packetSizes":[32],"loadLo":0.01,"loadHi":0.01}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunRetries pins -retries N to N retries after the first attempt:
// -retries 0 makes one attempt, not the default budget.
func TestRunRetries(t *testing.T) {
	for _, c := range []struct {
		retries  string
		attempts int
	}{{"0", 1}, {"1", 2}, {"2", 3}} {
		t.Run("retries="+c.retries, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"run", "-spec", oneJobSpec(t), "-store", t.TempDir(),
				"-retries", c.retries, "-backoff", "1ms", "-backoff-max", "1ms"}, nil, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("a failed campaign wrote a table:\n%s", stdout.String())
			}
			log := stderr.String()
			if got := strings.Count(log, "ibcamp test worker: induced failure"); got != c.attempts {
				t.Fatalf("%d worker attempts, want %d; stderr:\n%s", got, c.attempts, log)
			}
			last := fmt.Sprintf("attempt %d/%d failed", c.attempts, c.attempts)
			if !strings.Contains(log, last) {
				t.Fatalf("stderr lacks %q:\n%s", last, log)
			}
		})
	}
}

// TestRunZeroMeansNone pins how the run flags map onto
// campaign.Options, which reads a zero field as its default: on the
// command line 0 retries, 0 backoff and 0 backoff ceiling each ask for
// none (a negative field), and flags left out keep the defaults.
func TestRunZeroMeansNone(t *testing.T) {
	rc, code, ok := parseRun([]string{"-retries", "0", "-backoff", "0", "-backoff-max", "0"}, io.Discard)
	if !ok {
		t.Fatalf("parse failed with exit %d", code)
	}
	if o := rc.opts; o.Retries >= 0 || o.BackoffBase >= 0 || o.BackoffMax >= 0 {
		t.Fatalf("-retries 0 -backoff 0 -backoff-max 0 gave retries %d, backoff %v, ceiling %v; want all negative",
			o.Retries, o.BackoffBase, o.BackoffMax)
	}
	rc, _, _ = parseRun(nil, io.Discard)
	def := campaign.DefaultOptions()
	if o := rc.opts; o.Retries != def.Retries || o.BackoffBase != def.BackoffBase || o.BackoffMax != def.BackoffMax {
		t.Fatalf("no flags gave retries %d, backoff %v, ceiling %v; want the defaults %d, %v, %v",
			o.Retries, o.BackoffBase, o.BackoffMax, def.Retries, def.BackoffBase, def.BackoffMax)
	}
}

// TestRunRejectsNonPositive: -workers, -timeout and -hung-after have
// no "none" value, so zero or a negative value is a usage error (exit 2)
// naming the flag, not a silent default.
func TestRunRejectsNonPositive(t *testing.T) {
	for _, c := range [][]string{
		{"-workers", "0"}, {"-workers", "-1"},
		{"-timeout", "0"}, {"-timeout", "-1s"},
		{"-hung-after", "0"}, {"-hung-after", "-1s"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"run", "-spec", "no-such.json", "-store", "no-such-store"}, c...)
		if code := run(args, nil, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), c[0]+" must be positive") {
			t.Errorf("ibcamp %v: exit %d, stderr %q; want exit 2 naming %s", args, code, stderr.String(), c[0])
		}
	}
	if _, code, ok := parseRun([]string{"-workers", "1", "-timeout", "1ms", "-hung-after", "1ms"}, io.Discard); !ok {
		t.Fatalf("positive -workers, -timeout and -hung-after refused with exit %d", code)
	}
}

// TestUsage pins the exit codes of the command-line surface: no
// command and an unknown command are usage errors, help succeeds.
func TestUsage(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"bogus"}, 2},
		{[]string{"help"}, 0},
		{[]string{"run", "-h"}, 0},
		{[]string{"run", "-no-such-flag"}, 2},
		{[]string{"run"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, nil, &stdout, &stderr); code != c.code {
			t.Errorf("ibcamp %v: exit %d, want %d; stderr:\n%s", c.args, code, c.code, stderr.String())
		}
	}
}
