#!/usr/bin/env bash
# Builds the benchmark and the repository's statscheck validator from
# source into .bench_build/, then runs the benchmark with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload nas-fig6 --seed 1 --seconds 12 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files,
# telemetry) stays under .bench_build/ in the current directory.
#
# GODEBUG=madvdontneed=0 makes the Go runtime return freed heap pages
# with MADV_FREE, so a pass does not re-fault the pages the previous
# collection released; on a virtual machine those faults cost a
# variable share of every pass.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" . && go build -o "$build/statscheck" repro/internal/tools/statscheck)
GODEBUG=madvdontneed=0 exec "$build/perfbench" --statscheck "$build/statscheck" --workdir "$build" "$@"
