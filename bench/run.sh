#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the binary, WAL directories and temp files under
# .bench_build/, traces under bench/out/. The first call compiles (the
# standard library too, into the private cache); later calls find the
# cache warm and only re-check it.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
# Without the program there is nothing to build: say so and start nothing.
if [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: no go.mod in $root: the benchmark builds the repo it measures" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home/config/go/telemetry"

# HOME and the XDG directories are redirected so the go command's own
# bookkeeping (env file, telemetry) lands in the checkout as well. Telemetry
# is switched off in that private config: in its default mode the go command
# detaches a child of itself once a day per config directory, and that child
# outlives the build.
echo off >"$build/home/config/go/telemetry/mode"
env HOME="$build/home" XDG_CONFIG_HOME="$build/home/config" XDG_CACHE_HOME="$build/home/cache" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off \
	go build -o "$build/qcbench" ./bench

export TMPDIR="$build/tmp"
exec "$build/qcbench" "$@"
