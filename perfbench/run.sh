#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it:
#
#   bash perfbench/run.sh --workload <lib|serve-bulk|proxy-small> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build outputs, including the Go build
# cache, stay under $CARGO_TARGET_DIR (default .bench_build), so nothing
# is written outside the checkout and nothing is downloaded.
set -euo pipefail
root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C "$(dirname "$0")" build -o "$out/perfbench" .
# Set-up time counts from here: the exec below keeps this process.
PERFBENCH_EXEC_US=${EPOCHREALTIME/./} exec "$out/perfbench" "$@"
