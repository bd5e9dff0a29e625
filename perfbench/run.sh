#!/usr/bin/env bash
# Builds ragserver, shardnode and the benchmark driver from the source
# tree this script sits in, then runs the driver:
#
#   bash perfbench/run.sh --workload verify-cold --seed 1 --seconds 10 --trace 0
#
# Every build artefact, cache and scratch file lands under
# .bench_build/ at the repository root; nothing outside the checkout is
# read or written. A checkout without the module sources fails the
# build and exits non-zero before printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/bin/" repro/cmd/ragserver repro/cmd/shardnode . >&2
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/run" "$@"
