#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Build cache, temporary files, the go command's own
# configuration and the binary all stay under benchmark/.build, so nothing
# outside the checkout is read or written; BENCHMARK.json names this script
# as the command.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/benchmark/.build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# With a fresh config directory the go command would detach a telemetry
# child that outlives this script; mode "off" keeps it from starting one.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
