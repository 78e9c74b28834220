#!/usr/bin/env bash
# Builds soprd and the benchmark from source and runs the benchmark.
# Run it from the repository root:
#
#   bash soprperf/run.sh --workload oltp_small --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$root/$out/gocache" GOPATH="$root/$out/gopath" GOTMPDIR="$root/$out/tmp" \
	XDG_CONFIG_HOME="$root/$out/config" GOTOOLCHAIN=local GOFLAGS=
# With telemetry on (Go 1.23+ defaults to local mode), each go command may
# start a detached sidecar process that outlives it. "go telemetry off" is
# the one go command that starts none; it records the mode under
# XDG_CONFIG_HOME, so the builds below start none either.
go telemetry off
go build -o "$out/bin/soprd" ./cmd/soprd
(cd soprperf && go build -o "$root/$out/bin/soprperf" .)
exec "$out/bin/soprperf" -soprd "$out/bin/soprd" -out "$out" "$@"
