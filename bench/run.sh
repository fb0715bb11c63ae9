#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it:
#
#   bash bench/run.sh --workload olap-20k --seed 1 --seconds 16 --trace 0
#
# The binary, the Go build cache and the linker's temporary files all
# stay under .bench_build in the checkout, so a run reads and writes
# nothing outside it. `go build` does nothing when the binary is
# current, so every run but the first of a checkout starts at once.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/cache" "$build/tmp"
GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local \
	go build -o "$build/bench" ./bench >&2
exec "$build/bench" "$@"
