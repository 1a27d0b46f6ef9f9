#!/usr/bin/env sh
# ci.sh — the repository's tier-1 gate plus the hot-path discipline
# checks. Run locally before pushing; .github/workflows/ci.yml runs the
# same steps.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> go test -race"
go test -race ./...

echo "==> go test -shuffle=on (order-independence of the suite)"
go test -shuffle=on ./...

echo "==> alloc-regression gates (hot path must not allocate)"
# The always-on auditor's cheap hooks ride the same runs: this gate
# also proves they keep the steady-state injection path allocation-free.
go test -run 'ZeroAllocs' -v ./internal/core/ ./internal/sim/ ./internal/fabric/ ./internal/check/

echo "==> determinism golden"
go test -run 'TestFigure3Deterministic' -v ./internal/experiments/

echo "==> determinism golden under -check (auditor must not perturb results)"
go test -count=1 -run 'TestFigure3GoldenChecked' -v ./internal/experiments/

echo "==> observing does not perturb execution (a traced run dispatches exactly the untraced run's events)"
go test -count=1 -run 'TestTracingDoesNotPerturbExecution' -v ./internal/experiments/

echo "==> determinism golden with the scan arbiter (rescan oracle reproduces the artifact)"
go test -count=1 -run 'TestFigure3GoldenScanArb' -v ./internal/experiments/

echo "==> wake-arbiter differential (wake vs scan bit-exact; tamper forces scan)"
# The experiments matrix covers wheel geometries, both schedulers,
# -check, a fault campaign and a hot-spot
# contention storm; the fabric tests pin the runtime
# arm/disarm transitions and the lockstep rr-parity property. The
# ZeroAllocs gate above already holds both arbiters to 0 allocs/op
# (TestSwitchHopZeroAllocsScanArb and the congested wake-path burst
# TestArbWakeZeroAllocsCongested match its pattern).
go test -count=1 -run 'TestArb' -v ./internal/fabric/
go test -race -count=1 -run 'TestArb' -v ./internal/experiments/

echo "==> mutation smoke (every seeded model break trips its named invariant)"
go test -count=1 -run 'TestMutation' -v ./internal/check/

echo "==> topology fuzz corpus (Figure 3 geometries route deadlock-free)"
go test -run '^$' -fuzz 'FuzzIrregularTopology' -fuzztime 5s ./internal/topology/

echo "==> cross-family fuzz smoke (fat-tree and torus escape CDGs stay acyclic)"
go test -run '^$' -fuzz 'FuzzFatTreeTopology' -fuzztime 5s ./internal/topology/
go test -run '^$' -fuzz 'FuzzTorusTopology' -fuzztime 5s ./internal/topology/

echo "==> cross-family differential (fat-tree + torus goldens: plain vs -check vs scan arbiter)"
# Engine conformance pins each family's routing contract; the sweep
# goldens pin the simulations bit-exactly across execution strategies.
go test -count=1 -run 'TestEngineConformance|TestTorusEscapeAvoidsWraps|TestStructuredBuildersDegradeToUpDown' -v ./internal/routing/
go test -race -count=1 \
  -run 'TestFamilySweepsDeterministic|TestFamilySweepsEngineInvariant' -v ./internal/experiments/
go test -count=1 -run 'TestMetamorphicLMCInvarianceFamilies' -v ./internal/check/
go test -count=1 -run 'TestFamilyReportGolden|TestFamilyDotOutput' -v ./cmd/ibtopo/

echo "==> scheduler equivalence (calendar vs heap differential)"
go test -run 'TestEventQueueDifferential|TestEngineSchedulersEquivalent' -v ./internal/sim/

echo "==> event-queue fuzz smoke"
go test -run '^$' -fuzz 'FuzzEventQueueOrdering' -fuzztime 10s ./internal/sim/

echo "==> fault-campaign smoke (seeded flaps, staged recovery, watchdog)"
go test -race -run 'TestCampaignSmokeCI' -v ./internal/faults/

echo "==> crash-tolerance suite (SIGKILL mid-job, torn-store audit, byte-identical resume)"
go test -race -count=1 -run 'TestWorkerSIGKILL|TestCampaign|TestResume|TestCorrupt|TestHungWorker|TestStore|TestParentArtifact' -v ./internal/campaign/

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
