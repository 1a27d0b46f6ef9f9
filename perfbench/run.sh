#!/usr/bin/env bash
# Builds the benchmark program from the checkout's sources and runs it.
# Run from the repository root; every argument is passed through:
#
#   bash perfbench/run.sh --workload fig3-64 --seed 1 --seconds 10 --trace 0
#
# Build cache, temporary files, the binary and span files all stay
# under .bench_build in the current directory. Without the simulator's
# sources next to perfbench/ the build fails and the script exits
# non-zero before printing any result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)

rev=$(git rev-parse HEAD 2>/dev/null || true)
PERFBENCH_GIT_REV="${rev:-none}" exec "$out/perfbench" "$@"
