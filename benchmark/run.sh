#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it with
# the given flags. Everything the build leaves behind (binary, Go build
# cache, toolchain config) goes under .bench_build in that checkout, so a
# run reads and writes nothing outside it. The program itself is plain
# `go run ./benchmark`; this wrapper only pins where the build lives.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f benchmark/main.go ]; then
	echo "benchmark/run.sh: start me from the root of a checkout of the repository (no go.mod here)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
