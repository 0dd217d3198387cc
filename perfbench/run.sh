#!/usr/bin/env bash
# Builds the benchmark from source and runs it. From the root of a
# checkout:
#
#   bash perfbench/run.sh --workload erb_n64 --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (the binary, build cache, temporary
# files, GOPATH, its config and telemetry counters) stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
