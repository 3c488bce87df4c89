#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash benchmark/run.sh --workload avalanche --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root or anywhere else: it works on the tree it
# sits in. Everything it builds or writes stays under .bench_build/ at the
# root of that tree, including the Go build cache, so a fresh checkout pays
# one full compile on its first run. The build needs the simulator's
# sources next to the benchmark (the module replaces "hle" with "../"), so
# a tree holding only the benchmark fails here, before measuring anything.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOWORK=off
export GOFLAGS=-mod=readonly

go -C "$root/benchmark" build -o "$build/hle-perf" . >&2
cd "$root"
exec "$build/hle-perf" --out "$build/trace" "$@"
