#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload cascade --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory: the Go build cache,
# the binary and a traced run's spans.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
