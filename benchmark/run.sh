#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the
# build writes (Go's build cache and temporary directory included) inside
# the checkout, under .bench_build/. Arguments go to the program:
#
#   bash benchmark/run.sh --workload listen_steady --seed 7 --seconds 25 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" CGO_ENABLED=0
go build -o "$build/sdbench" ./benchmark
exec "$build/sdbench" "$@"
