#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of a checkout:
#
#   bash bench/run.sh --workload pan_zoom --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays in .bench_build: the Go build
# and module caches, the Go configuration directory, and the temporary
# directories of the restart workload.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
