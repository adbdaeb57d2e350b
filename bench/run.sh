#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build writes (compiler cache, temporary
# files, the binary) goes under .bench_build at the checkout's root.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
