#!/usr/bin/env bash
# Builds mcdbench from this checkout and runs it with the given arguments,
# from the repository root:
#
#   bash mcdbench/run.sh --workload cold_debug --seed 1 --seconds 10 --trace 0
#
# The Go build cache and temporary files stay under .bench_build in the
# checkout, and module resolution never leaves it: mcdbench/go.mod
# replaces the repository module with the parent directory, so a copy of
# mcdbench without the repository around it fails to build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/mcdbench" && go build -o "$out/mcdbench" .)
exec "$out/mcdbench" "$@"
