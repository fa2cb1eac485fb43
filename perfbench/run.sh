#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root, keeping
# every build output (Go build cache included) under .bench_build.
#   bash perfbench/run.sh --workload warm-read --seed 1 --seconds 15 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOTOOLCHAIN=local GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
