#!/usr/bin/env bash
# Builds servebench from this checkout and runs it with the given
# arguments, from the repository root:
#   bash servebench/run.sh --workload warm-hot --seed 1 --seconds 20 --trace 0
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
go -C servebench build -o "$out/servebench" .
exec "$out/servebench" "$@"
