#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload sync-long --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files and the binary.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off

(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
