#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash statebench/run.sh --workload window-merge --seed 2 --seconds 50 --trace 0
#
# The build cache, the Go user config (which the toolchain also writes
# telemetry counters under) and the binary live in .bench_build/ at the
# root, so the benchmark reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go -C statebench build -o "$out/statebench" .
exec "$out/statebench" "$@"
