#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in and runs
# it with the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
#
# Build caches, the binary, and the run's scratch files all stay under
# .bench_build/ in the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build/work" "$@"
