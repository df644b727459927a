#!/usr/bin/env bash
# Builds the benchmark and mtx-kv from this checkout, then runs one
# workload:
#
#   bash e2ebench/run.sh --workload wire-kv --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (Go build cache, Go's
# configuration and telemetry, binaries, scratch data dirs, span files)
# lives under .bench_build at the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go -C "$here" build -o "$out/e2ebench" . >&2
go -C "$here" build -o "$out/mtx-kv" modtx/cmd/mtx-kv >&2
exec "$out/e2ebench" -mtx-kv "$out/mtx-kv" -work "$out/work" "$@"
