#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload jit-solo --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, Go's telemetry
# counters, temporary files, the binary, replica blob stores) stays under
# .bench_build/ at the repo root, and no network is used.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOENV=off GOWORK=off
go build -C benchmark -o "$out/isel-bench" .
exec "$out/isel-bench" "$@"
