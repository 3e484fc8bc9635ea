#!/usr/bin/env bash
# Builds the fpmix benchmark from source and runs it with the given
# arguments (see bench/README.md). Run from the repository root:
#
#   bash bench/run.sh --workload search-inproc --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the current
# directory: the Go build cache, the binary, daemon stores, traces and
# the recorded deterministic counts.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/bench" && go build -o "$out/fpmixbench" .) >&2
exec "$out/fpmixbench" --out "$out" "$@"
