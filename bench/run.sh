#!/usr/bin/env bash
# The BENCHMARK.json command: build the harness from source and run it,
# keeping the Go build cache and every binary inside the checkout
# (bench/out/build/), so nothing is read or written outside it. From a
# development tree, `go run ./bench` does the same with the user's cache.
set -euo pipefail
build="$PWD/bench/out/build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
mkdir -p "$build"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
