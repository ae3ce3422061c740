#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it:
#
#   bash perfbench/run.sh --workload sim-load --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# temporary sweep caches, trace files) stays under .bench_build in the
# checkout root. The toolchain runs offline and never downloads.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
