#!/usr/bin/env bash
# Builds the benchmark and cmd/icid from this checkout's sources, then
# runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload jobs-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout, the Go build cache and module cache included.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/gocache" "$out/gomodcache" "$out/gotmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off GOENV=off GOWORK=off
# With telemetry on, the go command starts a detached upload process that
# can outlive this script; "go telemetry off" is the one go command that
# never starts it, and it records the mode under $XDG_CONFIG_HOME.
go telemetry off >&2
go build -o "$out/icid" ./cmd/icid >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -icid "$out/icid" -out "$out" "$@"
