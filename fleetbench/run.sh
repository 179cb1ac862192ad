#!/usr/bin/env bash
# Builds the fleet benchmark from this checkout's sources and runs it,
# passing every argument through:
#
#   bash fleetbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay inside the
# checkout, under .bench_build.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go -C "$here" build -trimpath -buildvcs=false -o "$build/fleetbench" .
exec "$build/fleetbench" "$@"
