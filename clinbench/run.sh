#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#
#   bash clinbench/run.sh --workload clinical-register --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# span files stay under .bench_build/ in that directory; the repository
# module must sit in the parent directory of this one.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# Everything the go command writes goes under .bench_build: its build
# and module caches, GOPATH, and its config dir (telemetry counters).
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$(dirname "$0")" && go build -o "$build/clinbench" .)
exec "$build/clinbench" "$@"
