#!/usr/bin/env bash
# Builds the load generator from source inside the checkout and runs it.
# The build cache, the temporary files and the binary all live under
# .bench_build, so nothing is read or written outside the checkout
# except the Go toolchain itself.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	go build -o "$build/munin-benchmark" ./benchmark
exec "$build/munin-benchmark" "$@"
