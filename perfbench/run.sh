#!/usr/bin/env bash
# Builds the benchmark from source into the build directory of the
# checkout it is run from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload mbpta-rm --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under $CARGO_TARGET_DIR (default
# .bench_build), and no module is fetched.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config # the toolchain's telemetry and settings
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
