#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, for example:
#
#   bash benchmark/run.sh --workload mcnc-paper --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the service workload's temporary
# job stores all live under benchmark/.bench_build/, so a run writes
# nothing outside the benchmark's directory. The build fails, and the
# script exits non-zero without running anything, when the repository's
# source is not next to this directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$here/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

go -C "$here" build -o "$out/irgrid-bench" .
exec "$out/irgrid-bench" "$@"
