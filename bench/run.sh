#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build the benchmark from
# source against this checkout, then run it from the checkout's root.
#
#   bash bench/run.sh --workload sock_small --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                      # whole suite, one child per workload
#
# Everything the build and the run write (Go build cache, binary, datasets,
# sockets, span files) lands in .bench_build/ at the checkout's root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

# Keep the toolchain's own writes inside the checkout too, and keep it off
# the network: the benchmark's only dependency is the repository around it.
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
