#!/usr/bin/env bash
# Builds surf-perf from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash cmd/surf-perf/run.sh --workload find-surrogate --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays under .bench_build at
# the checkout root: the Go build cache, the binary, generated data
# (removed after each run) and the reports and trace.json of the last
# run of each workload.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$build/surf-perf" .)
exec "$build/surf-perf" -work "$build/work" -out "$build/out" "$@"
