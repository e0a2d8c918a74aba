#!/usr/bin/env bash
# Builds the MDV end-to-end benchmark from the source tree it sits in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload single-path --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory. Without the repository's sources next to perfbench/
# the build fails and the script exits non-zero before any result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
