#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to
# the harness (see README.md). Build cache, binary and all run output stay
# inside the checkout: .bench_build/ and benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/ompmca-benchmark" . >&2
exec "$build/ompmca-benchmark" "$@"
