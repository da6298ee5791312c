#!/bin/sh
# Builds the benchmark from source and runs it, keeping every file the
# toolchain and the benchmark write inside the checkout: the Go build cache,
# the build's temp files and the binary go under .bench_build/, the
# benchmark's data and results under bench/out/.
#
#   sh bench/run.sh --workload tpch_mem --seed 1 --seconds 15 --trace 0
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false \
	go build -o "$build/photon-bench" ./bench
exec "$build/photon-bench" "$@"
