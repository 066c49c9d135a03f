#!/bin/sh
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout and run it. The Go build cache, the module cache and every
# temporary file (the simd binary, report files) live under .bench_build/,
# so a run reads and writes nothing outside the directory it started in.
#
#   sh bench/run.sh --workload tc_gemm --seed 1 --seconds 10 --trace 0
set -eu
if [ ! -f go.mod ] || [ ! -d cmd/simd ]; then
	echo "bench/run.sh: run from the root of a full checkout (go.mod and cmd/simd are missing here)" >&2
	exit 2
fi
b="$PWD/.bench_build"
mkdir -p "$b/tmp"
export GOCACHE="$b/gocache" GOMODCACHE="$b/gomodcache" GOPATH="$b/gopath"
export GOTMPDIR="$b/tmp" TMPDIR="$b/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
go build -o "$b/bench" ./bench
exec "$b/bench" "$@"
