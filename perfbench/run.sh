#!/usr/bin/env bash
# Builds the grade10 benchmark harness from source and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload batch-text --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the Go toolchain and the
# harness write stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
