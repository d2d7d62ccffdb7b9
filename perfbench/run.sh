#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#   bash perfbench/run.sh --workload solve-wide --seed 1 --seconds 20 --trace 0
# Everything the build and the run write stays under .bench_build/ at
# the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
export PERFBENCH_WORKDIR="$build/work"
exec "$build/perfbench" "$@"
