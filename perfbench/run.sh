#!/usr/bin/env bash
# Builds khist-server and the benchmark runner from this checkout, then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write goes under .bench_build/ there: the binaries, the Go build cache,
# the Go tool's own config and telemetry, and the traced run's spans.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/khist-server" ./cmd/khist-server
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" -server "$out/khist-server" -spans "$out/spans" "$@"
