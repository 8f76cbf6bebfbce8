#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash benchmark/run.sh --workload g500-pcie-hybrid --seed 1 --seconds 16 --trace 0
#
# Run it from the repository root. Everything it builds, caches or writes
# stays under .bench_build/ in that directory. Without the repository's
# sources next to benchmark/ the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# Keep the Go caches, module path and the toolchain's own config writes
# (telemetry counters live under the user config directory) in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# Build to a private name and rename, so concurrent runs never execute a
# half-written binary.
tmp="$out/benchmark.$$"
(cd "$root/benchmark" && go build -o "$tmp" .) >&2
mv -f "$tmp" "$out/benchmark"
exec "$out/benchmark" "$@"
