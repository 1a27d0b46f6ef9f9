// Command ibcamp runs simulation campaigns crash-tolerantly.
//
//	ibcamp run -spec sweep.json -store ./results            # run (or resume) a campaign
//	ibcamp run -spec sweep.json -store ./results -degrade   # aggregate partials, annotate holes
//	ibcamp expand -spec sweep.json                          # list the job DAG without running
//	ibcamp verify -store ./results                          # audit every stored artifact
//	ibcamp worker                                           # internal: one job, spec on stdin
//
// The coordinator re-execs this binary as `ibcamp worker` per job
// attempt, so a worker crash (panic, OOM kill, SIGKILL) costs one
// attempt of one job, never the campaign. Results live in a
// content-addressed store keyed by each job's canonical input hash;
// interrupting the coordinator (SIGINT/SIGTERM) and rerunning the same
// command resumes, skipping completed jobs and reproducing the
// aggregate table byte-identically. Only the table goes to stdout —
// progress and diagnostics go to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"ibasim/internal/campaign"
)

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: ibcamp <run|expand|verify|worker> [flags]")
	fmt.Fprintln(w, "  run    -spec FILE -store DIR [-workers N] [-timeout D] [-retries N]")
	fmt.Fprintln(w, "         [-backoff D] [-backoff-max D] [-hung-after D] [-degrade] [-q]")
	fmt.Fprintln(w, "  expand -spec FILE")
	fmt.Fprintln(w, "  verify -store DIR")
	fmt.Fprintln(w, "  worker (internal; job JSON on stdin, artifact on stdout)")
}

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is main with its environment injected so tests can drive the
// command end to end. It returns the exit code: 0 on success, 1 when
// the command fails (after an "ibcamp: ..." line on stderr), 2 on a
// usage error, 3 when an interrupted campaign can be resumed.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "expand":
		return cmdExpand(args[1:], stdout, stderr)
	case "verify":
		return cmdVerify(args[1:], stdout, stderr)
	case "worker":
		return campaign.WorkerMain(stdin, stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "ibcamp: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "ibcamp:", err)
	return 1
}

// parse parses a subcommand's flags the way flag.ExitOnError would
// exit: ok is false after -h (code 0) or a bad flag (code 2).
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) (code int, ok bool) {
	fs.SetOutput(stderr)
	switch err := fs.Parse(args); {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	default:
		return 2, false
	}
}

func loadPlan(specPath string) (*campaign.Plan, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	spec, err := campaign.ParseSpec(data)
	if err != nil {
		return nil, err
	}
	return spec.Expand()
}

// runConfig is what the run command's flags ask for.
type runConfig struct {
	spec, store string
	opts        campaign.Options
}

// parseRun parses the run command's flags; ok is false when the
// command should exit with code at once. campaign.Options reads a zero
// field as its default, but on the command line 0 retries, 0 backoff
// and 0 backoff ceiling each mean none: no retry, no wait. -workers,
// -timeout and -hung-after have no "none", so a value that is not
// positive is a usage error.
func parseRun(args []string, stderr io.Writer) (rc runConfig, code int, ok bool) {
	def := campaign.DefaultOptions()
	fs := flag.NewFlagSet("ibcamp run", flag.ContinueOnError)
	specPath := fs.String("spec", "", "campaign spec JSON file")
	storeDir := fs.String("store", "", "result store directory (created if missing)")
	workers := fs.Int("workers", def.Workers, "concurrent worker processes (must be positive)")
	timeout := fs.Duration("timeout", def.Timeout, "per-attempt wall-clock limit (must be positive)")
	retries := fs.Int("retries", def.Retries, "retries per job after the first attempt")
	backoff := fs.Duration("backoff", def.BackoffBase, "base retry backoff (doubles per attempt, jittered; 0 = no wait)")
	backoffMax := fs.Duration("backoff-max", def.BackoffMax, "retry backoff ceiling (0 = no wait)")
	hungAfter := fs.Duration("hung-after", def.HungAfter, "kill a worker silent this long (must be positive)")
	degrade := fs.Bool("degrade", false, "aggregate partial results, annotating missing seeds per cell")
	quiet := fs.Bool("q", false, "suppress progress output")
	if code, ok := parse(fs, args, stderr); !ok {
		return rc, code, false
	}
	for _, f := range []struct {
		name     string
		positive bool
	}{{"workers", *workers > 0}, {"timeout", *timeout > 0}, {"hung-after", *hungAfter > 0}} {
		if !f.positive {
			fmt.Fprintf(stderr, "ibcamp run: -%s must be positive, got %s\n", f.name, fs.Lookup(f.name).Value)
			return rc, 2, false
		}
	}
	log := stderr
	if *quiet {
		log = io.Discard
	}
	rc = runConfig{spec: *specPath, store: *storeDir, opts: campaign.Options{
		Workers: *workers, Timeout: *timeout, Retries: *retries,
		BackoffBase: *backoff, BackoffMax: *backoffMax, HungAfter: *hungAfter,
		Degrade: *degrade, Log: log,
	}}
	if *retries == 0 {
		rc.opts.Retries = -1
	}
	if *backoff == 0 {
		rc.opts.BackoffBase = -1
	}
	if *backoffMax == 0 {
		rc.opts.BackoffMax = -1
	}
	return rc, 0, true
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	rc, code, ok := parseRun(args, stderr)
	if !ok {
		return code
	}
	if rc.spec == "" || rc.store == "" {
		return fail(stderr, errors.New("run needs -spec and -store"))
	}
	plan, err := loadPlan(rc.spec)
	if err != nil {
		return fail(stderr, err)
	}
	store, err := campaign.Open(rc.store)
	if err != nil {
		return fail(stderr, err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := campaign.Run(ctx, plan, store, rc.opts)
	if err != nil {
		if rep != nil && ctx.Err() != nil {
			fmt.Fprintln(stderr, "ibcamp:", err)
			fmt.Fprintln(stderr, "ibcamp: completed jobs are stored; rerun the same command to resume")
			return 3
		}
		return fail(stderr, err)
	}
	if err := rep.Table.Write(stdout); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stderr, "ibcamp: done: %d job(s) — %d run, %d cached, %d retried attempt(s)\n",
		len(rep.Outcomes), rep.Done, rep.Cached, rep.Retried)
	return 0
}

func cmdExpand(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ibcamp expand", flag.ContinueOnError)
	specPath := fs.String("spec", "", "campaign spec JSON file")
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	if *specPath == "" {
		return fail(stderr, errors.New("expand needs -spec"))
	}
	plan, err := loadPlan(*specPath)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "# campaign %s: %d job(s), %d group(s)\n", plan.Spec.Name, len(plan.Jobs), len(plan.Groups))
	fmt.Fprintln(stdout, "# hash\tsize\tpkt\tpattern\tfrac\tload\tseed")
	for _, j := range plan.Jobs {
		s := j.Spec
		fmt.Fprintf(stdout, "%s\t%d\t%d\t%s\t%.2f\t%.4f\t%d\n",
			j.Hash, s.Switches, s.PacketSize, s.Pattern.String(), s.AdaptiveFraction, s.Load, s.Seed)
	}
	return 0
}

func cmdVerify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ibcamp verify", flag.ContinueOnError)
	storeDir := fs.String("store", "", "result store directory")
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	if *storeDir == "" {
		return fail(stderr, errors.New("verify needs -store"))
	}
	store, err := campaign.Open(*storeDir)
	if err != nil {
		return fail(stderr, err)
	}
	entries, torn, err := store.Verify()
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "store %s: %d verified entr%s, %d torn temp file(s)\n",
		*storeDir, entries, plural(entries, "y", "ies"), len(torn))
	for _, t := range torn {
		fmt.Fprintln(stdout, "torn:", t)
	}
	if len(torn) > 0 {
		return 1
	}
	return 0
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
