#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given: the Go build cache, temporary files, the binary, the data
# directories of durable workloads and all output stay under .bench_build/.
# Run from the root of the checkout:
#
#   bash benchmark/run.sh --workload join_scan --seed 7 --seconds 15 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bin/refperf" ./benchmark
exec "$build/bin/refperf" "$@"
