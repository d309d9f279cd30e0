#!/usr/bin/env bash
# Builds the simulator benchmark from the checkout this script sits in and
# runs it. All build state (compiler cache, binary) stays under
# .bench_build at the checkout root.
#
#   bash simbench/run.sh --workload paper --seed 42 --seconds 5 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C "$root/simbench" build -o "$out/simbench" . >&2
exec "$out/simbench" -root "$root" "$@"
