#!/usr/bin/env sh
# ci.sh — the repository's tier-1 gate plus the hot-path discipline
# checks. Run locally before pushing; .github/workflows/ci.yml runs
# this script as its one job.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet"
go vet ./...

echo "==> gofmt (every Go file is formatted)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "$unformatted"
  exit 1
fi

echo "==> go build"
go build ./...

echo "==> go test -race"
go test -race ./...

echo "==> go test -count=2 -shuffle=on (order-independence of the suite, repeated in one process)"
go test -count=2 -shuffle=on ./...

echo "==> alloc-regression gates (float mean of mallocs per run; hot path must not allocate; one selection pass in all four §4.3 modes)"
# Each gate counts runtime.MemStats.Mallocs over its runs and divides
# as a float, so a bound under one allocation per run (the injection
# gates' amortized slab refill) is real: testing.AllocsPerRun rounds
# the mean down to an integer. The always-on auditor's cheap hooks ride
# the same runs: this gate also proves they keep the steady-state
# injection path allocation-free, TestSwitchHopZeroAllocsSteadyState
# runs a hop under each selection mode, and
# TestSwitchHopZeroAllocsPhaseLabels holds a hop with the profiler's
# phase labels armed to the same bar.
go test -run 'ZeroAllocs' -v ./internal/core/ ./internal/sim/ ./internal/fabric/ ./internal/check/

echo "==> fabric construction (every forwarding table, escape routing and FA option set byte-identical to pinned digests, escape-CDG cycle reports pinned; a 64-switch build makes at most 8,000 mallocs)"
go test -count=1 -run 'TestConstructionGolden|TestConstructionCycleGolden' -v ./internal/subnet/
go test -count=1 -run 'TestFabricBuildAllocs' -v .

echo "==> profiler phase labels (a phase restores the label of the phase it runs inside)"
go test -count=1 -run 'TestPhaseRestoresEnclosingLabel' -v ./internal/prof/

echo "==> harness goldens (Table 1, motivation, fault table and the facade's sweeps pinned by sha256; every harness runs one pool in plan order, and the pooled sweeps match a sequential loop)"
go test -race -count=1 -run 'TestHarnessGoldens|TestLoadSweepsMatchSequential' -v ./internal/experiments/
go test -race -count=1 -run 'TestHarnessGoldensFacade' -v .

echo "==> facade result (ibasim.Result is the experiments RunResult: a fault run reports Retry)"
go test -count=1 -run 'TestSimulateReportsRetry' -v .

echo "==> bytes per generated packet and packets carved (a saturated run keeps its backlog as coded entries and reuses delivered packets: bound its memory slope, and hold the packets carved to the ones in flight)"
go test -count=1 -run 'TestHotSpotBytesPerGeneratedPacket|TestHotSpotCarvedPacketsStayInFlight' -v ./internal/experiments/

echo "==> source queue (delta-coded entries of about 1.4 bytes replayed from the host's traffic stream, one FIFO for generated, injected and retried packets, no failing injection pass)"
go test -count=1 -run 'TestSrcEntryLayout|TestPktFIFO|TestSourceQueueMixedOrder|TestGenerateSkipsOnlyFailingPasses' -v ./internal/fabric/
go test -count=1 -run 'TestSourceReplayMatchesGeneration' -v ./internal/experiments/

echo "==> determinism golden"
go test -run 'TestFigure3Deterministic' -v ./internal/experiments/

echo "==> determinism golden under -check (auditor must not perturb results)"
go test -count=1 -run 'TestFigure3GoldenChecked' -v ./internal/experiments/

echo "==> observing does not perturb execution (a traced run dispatches exactly the untraced run's events)"
go test -count=1 -run 'TestTracingDoesNotPerturbExecution' -v ./internal/experiments/

echo "==> determinism golden with the scan arbiter (rescan oracle reproduces the artifact)"
go test -count=1 -run 'TestFigure3GoldenScanArb' -v ./internal/experiments/

echo "==> wake-arbiter differential (wake vs scan bit-exact, also while tamper models and mutation hooks fire)"
# The experiments matrix covers wheel geometries, both schedulers,
# -check, two fault campaigns (one with send-timeout retries) and a
# hot-spot contention storm; the fabric tests pin the arbiter choice
# and the lockstep rr-parity property; TestArbWakeExactUnderTamper
# compares the two arbiters' audit reports, event counts and fault
# totals while tamper models and mutation hooks fire mid-run. The
# ZeroAllocs gate above already holds both arbiters to 0 allocs/op
# (TestSwitchHopZeroAllocsScanArb and the congested wake-path burst
# TestArbWakeZeroAllocsCongested match its pattern).
go test -count=1 -run 'TestArb' -v ./internal/fabric/
go test -race -count=1 -run 'TestArb' -v ./internal/experiments/
go test -count=1 -run 'TestArbWakeExactUnderTamper' -v ./internal/check/

echo "==> mutation smoke (every seeded model break trips its named invariant under both arbiters)"
go test -count=1 -run 'TestMutation' -v ./internal/check/

# Every fuzz smoke runs with -fuzzminimizetime 0: minimizing each new
# input would take most of a smoke this short. A failing input still
# fails the step.
echo "==> topology fuzz corpus (Figure 3 geometries route deadlock-free)"
go test -run '^$' -fuzz 'FuzzIrregularTopology' -fuzztime 5s -fuzzminimizetime 0 ./internal/topology/

echo "==> cross-family fuzz smoke (fat-tree and torus escape CDGs stay acyclic)"
go test -run '^$' -fuzz 'FuzzFatTreeTopology' -fuzztime 5s -fuzzminimizetime 0 ./internal/topology/
go test -run '^$' -fuzz 'FuzzTorusTopology' -fuzztime 5s -fuzzminimizetime 0 ./internal/topology/

echo "==> cross-family differential (fat-tree + torus goldens: plain vs -check vs scan arbiter)"
# Engine conformance pins each family's routing contract; the sweep
# goldens pin the simulations bit-exactly across execution strategies.
go test -count=1 -run 'TestEngineConformance|TestTorusEscapeAvoidsWraps|TestStructuredBuildersDegradeToUpDown' -v ./internal/routing/
go test -race -count=1 \
  -run 'TestFamilySweepsDeterministic|TestFamilySweepsEngineInvariant' -v ./internal/experiments/
go test -count=1 -run 'TestMetamorphicLMCInvarianceFamilies' -v ./internal/check/
go test -count=1 -run 'TestFamilyReportGolden|TestFamilyDotOutput' -v ./cmd/ibtopo/

echo "==> one selection pass (the switch's §4.3 pickAdaptive and §4.4 usable, unit-tested on hand-set credits and links)"
go test -count=1 -run 'TestPickAdaptive|TestUsable' -v ./internal/fabric/

echo "==> scheduler equivalence and one selection pass (calendar vs heap differential, counting sort vs full-key sort, order-sensitive experiment matrix and goldens with the retry fixture)"
# Default-mode goldens cannot see the dispatch order among events that
# share a timestamp; the experiment matrix runs the selection modes
# whose RNG draws follow it (at MR 2 and MR 4), calendar vs heap and
# wake vs scan, and the selection-mode goldens pin those runs' complete
# RunResults and a source-multipath run. The retry fixture
# (diffRetrySpec) is the one whose runs time out, drop and re-inject
# packets and re-select after Reroute; both tests run it.
go test -run 'TestEventQueueDifferential|TestEngineSchedulersEquivalent|TestSortBucketMatchesFullKeySort|TestCalendarFarTimerFirst|TestCalendarHorizonParking' -v ./internal/sim/
go test -race -count=1 -run 'TestSchedulerOrderMatrix|TestSelectionModeGoldens' -v ./internal/experiments/

echo "==> event-queue fuzz smoke (calendar vs heap through the engine's two calls, popAtMost and hasEventAt)"
go test -run '^$' -fuzz 'FuzzEventQueueOrdering' -fuzztime 10s -fuzzminimizetime 0 ./internal/sim/

echo "==> source-queue fuzz smoke (delta-coded entries against a slice: gaps up to 2^56-1, every DLID offset, markers, bursts across chunks)"
go test -run '^$' -fuzz 'FuzzPktFIFO' -fuzztime 5s -fuzzminimizetime 0 ./internal/fabric/

echo "==> subnet manager (one table writer: reconfiguration keeps the §4.2 fence and source multipath)"
go test -race -count=1 -run 'TestStaged|TestReconfigure|TestTrafficSurvives|TestMixed|TestMultipath' -v ./internal/subnet/

echo "==> fault-campaign smoke (seeded flaps, staged recovery, watchdog)"
go test -race -run 'TestCampaignSmokeCI' -v ./internal/faults/

echo "==> crash-tolerance suite (SIGKILL mid-job, torn-store audit, byte-identical resume)"
go test -race -count=1 -run 'TestWorkerSIGKILL|TestCampaign|TestResume|TestCorrupt|TestHungWorker|TestStore|TestParentArtifact' -v ./internal/campaign/

echo "==> ibcamp command (-retries N makes N retries after the first attempt; 0 retries, backoff or ceiling means none; non-positive -workers, -timeout or -hung-after is a usage error; exit codes)"
go test -race -count=1 -run 'TestRunRetries|TestRunZeroMeansNone|TestRunRejectsNonPositive|TestUsage' -v ./cmd/ibcamp/

echo "==> ibbench list flags (one list parser: error texts pinned, empty items skipped)"
go test -count=1 -run 'TestParseList' -v ./cmd/ibbench/

echo "==> crash loop (the coordinator is the store's only writer: no torn files under any kill timing)"
go test -count=50 -run 'TestWorkerSIGKILL|TestHungWorker|TestInterruptedRun' ./internal/campaign/

echo "==> campaign smoke (SIGTERM the coordinator mid-run, resume, diff vs clean + in-process oracle, zero torn files)"
CAMPDIR=$(mktemp -d)
trap 'rm -rf "$CAMPDIR"' EXIT
go build -race -o "$CAMPDIR/ibcamp" ./cmd/ibcamp
go build -race -o "$CAMPDIR/ibbench" ./cmd/ibbench
"$CAMPDIR/ibbench" -emit-campaign "$CAMPDIR/camp.json" \
  -sizes 8 -topos 3 -loads 2 -warmup 10000 -measure 50000
# Clean uninterrupted run — the reference aggregate.
"$CAMPDIR/ibcamp" run -spec "$CAMPDIR/camp.json" -store "$CAMPDIR/store-clean" -q \
  > "$CAMPDIR/agg-clean.txt"
# The sequential in-process oracle must reproduce it byte-for-byte.
"$CAMPDIR/ibbench" -exp campaign -campaign "$CAMPDIR/camp.json" > "$CAMPDIR/agg-oracle.txt"
cmp "$CAMPDIR/agg-clean.txt" "$CAMPDIR/agg-oracle.txt"
# Interrupted run: SIGTERM the coordinator mid-campaign...
"$CAMPDIR/ibcamp" run -spec "$CAMPDIR/camp.json" -store "$CAMPDIR/store-resume" -q \
  > "$CAMPDIR/agg-interrupted.txt" 2>/dev/null &
CAMP_PID=$!
sleep 0.3
kill -TERM "$CAMP_PID" 2>/dev/null || true
wait "$CAMP_PID" || true
# ...then resume into the same store: byte-identical to the clean run.
"$CAMPDIR/ibcamp" run -spec "$CAMPDIR/camp.json" -store "$CAMPDIR/store-resume" -q \
  > "$CAMPDIR/agg-resumed.txt"
cmp "$CAMPDIR/agg-clean.txt" "$CAMPDIR/agg-resumed.txt"
# Zero torn files, every artifact hash-verified (verify exits 1 otherwise).
"$CAMPDIR/ibcamp" verify -store "$CAMPDIR/store-resume"
rm -rf "$CAMPDIR"
trap - EXIT

echo "==> benchmark self-test (perfbench compiles against the library and checks its metrics)"
(cd perfbench && go vet ./... && go test ./...)

echo "CI OK"
