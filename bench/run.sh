#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Everything the Go toolchain writes (build cache, temporary files, its
# own configuration) is kept in .bench_build/ at the root of the checkout,
# so a run touches nothing outside it.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
go -C "$bench" build -o "$build/cruz-bench" .
# Free heap memory lazily (MADV_FREE, not MADV_DONTNEED). A pass allocates
# 4 GB around 1 GB live and the next starts from an empty heap, so by
# default the scavenger hands the heap back to the kernel between passes
# and every pass faults it in again: 20 % of the process's CPU time goes to
# the kernel, and in a virtual machine that share is the noisiest.
export GODEBUG=madvdontneed=0
exec "$build/cruz-bench" "$@"
