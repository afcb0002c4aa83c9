#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file it
# writes (Go build cache, binary, temporary profiles) inside the checkout.
# Run from the root of the repository:
#
#   bash benchmark/run.sh --workload blk_rand4k --seed 1 --seconds 15 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local TMPDIR="$build/tmp"
go build -C "$here" -o "$build/riobenchmark" .
exec "$build/riobenchmark" "$@"
