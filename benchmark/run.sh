#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload static-small --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the workloads' data directories stay under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd benchmark && go build -o "$out/kspdg-benchmark" .)
exec "$out/kspdg-benchmark" "$@"
