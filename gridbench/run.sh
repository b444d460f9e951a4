#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   sh gridbench/run.sh --workload wan-ingest --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. The Go build and module caches,
# temporary files (the pack engines' directories) and the binary stay
# under .bench_build in the checkout, or under $CARGO_TARGET_DIR if it
# is set.
set -eu
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gomod" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/gridbench" && go build -o "$build/gridbench" .)
exec "$build/gridbench" --out "$root/gridbench/out" "$@"
