#!/usr/bin/env bash
# Builds the harness inside the checkout and runs it with the given flags.
# Run from the repository root: bash benchmark/run.sh -seed 1
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
mkdir -p "$build/tmp"
# Keep the toolchain's cache, scratch and settings in the checkout too:
# the benchmark reads and writes nothing outside it.
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
BENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
go build -C "$root/benchmark" -o "$build/statebench" .
exec "$build/statebench" "$@"
