#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the benchmark's command. Run it from the root of a checkout:
#
#   bash benchmark/run.sh --workload echo-sparse --seed 1 --seconds 24 --trace 0
#
# Everything the build leaves behind goes under .bench_build/ in the
# checkout: the binary and the Go build cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry files
export GOTOOLCHAIN=local GOPROXY=off # nothing is downloaded
go build -C "$root/benchmark" -buildvcs=false -o "$build/zygos-benchmark" . >&2
ZYGOS_BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export ZYGOS_BENCH_COMMIT
exec "$build/zygos-benchmark" "$@"
