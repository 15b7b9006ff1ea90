#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload fig8 --seed 1 --seconds 30 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build/
# at the repository root. The Go toolchain must already be installed; the
# build uses no network.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

go -C "$bench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
