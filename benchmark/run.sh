#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout's sources and runs it with
# the given flags, e.g.
#
#   bash benchmark/run.sh --workload campaign-default --seed 2022 --seconds 25 --trace 0
#   bash benchmark/run.sh                 # all four workloads, one child process each
#   bash benchmark/run.sh --runs 10       # repeat mode: medians, quartiles, spreads
#
# Everything the build and the runs write (Go build cache, binary, temp
# stores, span files, CPU profiles) stays under .bench_build/ at the root of
# the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/go-build" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local TMPDIR="$build/tmp"

go -C "$root/benchmark" build -o "$build/rhvpp-bench" .
cd "$root"
exec "$build/rhvpp-bench" "$@"
