#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload fleet-open --seed 1 --seconds 10 --trace 0
#
# Build output and the Go build cache stay under .bench_build/ in the
# checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS= CGO_ENABLED=0
go build -C "$root/perfbench" -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
