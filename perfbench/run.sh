#!/usr/bin/env bash
# Builds the benchmark and coemud from the checkout it is run in, then
# runs one workload:
#
#   bash perfbench/run.sh --workload engine-rollback --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Build products, the Go build cache
# and per-run outputs stay inside the checkout (.bench_build and
# .bench_out), and the build never touches the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/perfbench" build -o "$build/perfbench" .
go build -o "$build/coemud" ./cmd/coemud

exec "$build/perfbench" -coemud "$build/coemud" -out "$root/.bench_out" "$@"
