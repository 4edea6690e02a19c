#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the build
# and the run write inside the checkout: the Go build cache, the binary, and
# the temp dir that holds snapshot stores and trace files all live under
# .bench_build/. This is BENCHMARK.json's command; arguments pass through.
# By hand, `go run ./benchmark` does the same with the user's own build cache
# and temp dir.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
commit="$(git rev-parse HEAD 2>/dev/null || true)"
go build -ldflags "-X main.commit=$commit" -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
