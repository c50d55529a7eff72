#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash predbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, binary) and every output file
# (span files) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/predbench" && go build -o "$out/predbench" .)
exec "$out/predbench" "$@"
