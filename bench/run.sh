#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   bash bench/run.sh --workload campaign --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build): the binary, the Go build
# cache and the scratch shards. No network access is needed: the module has
# no dependencies outside the standard library and this repository.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomodcache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/bench" && go build -o "$out/arestbench" .)
exec "$out/arestbench" -work "$out/work" "$@"
