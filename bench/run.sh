#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bench/run.sh                                   = -all: four workloads, then the traced run
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1   (the form BENCHMARK.json names)
#   bench/run.sh -agree a.json b.json
#
# Everything the build and the run write stays under .bench_build/ and
# bench/out/, both named in .gitignore.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
(cd bench && go build -buildvcs=false -o "$build/unidb-bench" .)
if [ $# -eq 0 ]; then
  set -- -all
fi
exec "$build/unidb-bench" "$@"
