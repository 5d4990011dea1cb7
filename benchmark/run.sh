#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the
# benchmark from source inside the checkout and run it with the
# driver's arguments. Everything the build leaves behind, the Go build
# cache included, stays under .bench_build/ in the checkout; the run
# itself works under .bench_work/. By hand, `go run ./benchmark` from
# the repository root does the same with the user's own build cache.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
