#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it: the form
# BENCHMARK.json's command names. Everything the build writes, the Go build
# cache included, stays under .bench_build/ so that a run reads and writes
# only inside its checkout. Arguments are passed through to the program.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false
go build -o "$build/simany-benchmark" ./benchmark
exec "$build/simany-benchmark" "$@"
