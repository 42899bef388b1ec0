#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every file the build and the run write
# goes under $CARGO_TARGET_DIR (default .bench_build): the Go build
# cache, the binary and the per-workload state.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/perfbench" "$out/go/cache" "$out/go/tmp" "$out/go/path" "$out/go/config"

export GOCACHE=$out/go/cache
export GOTMPDIR=$out/go/tmp
export GOPATH=$out/go/path
export XDG_CONFIG_HOME=$out/go/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

bin=$out/perfbench/perfbench
(cd "$root/perfbench" && go build -o "$bin" .)
exec "$bin" -state "$out/perfbench" "$@"
