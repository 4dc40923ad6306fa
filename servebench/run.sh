#!/usr/bin/env bash
# Builds the relserve benchmark from source and runs it. Run from the
# repository root; every argument is passed on:
#
#   bash servebench/run.sh --workload crm-check --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary stay under
# .bench_build/ in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
(cd servebench && go build -o "$build/servebench" .)
exec "$build/servebench" "$@"
