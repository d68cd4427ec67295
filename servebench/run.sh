#!/usr/bin/env bash
# Builds the benchmark and the prefcoverd daemon from this
# checkout, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash servebench/run.sh --workload hit --seed 1 --seconds 16 --trace 0
#
# Build outputs, the Go build cache and every temp file (the daemon's
# included) stay under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build/servebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" TMPDIR="$out/tmp" GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
go build -C servebench -o "$out/servebench" .
go build -o "$out/prefcoverd" ./cmd/prefcoverd
exec "$out/servebench" -daemon "$out/prefcoverd" -workdir "$out" "$@"
