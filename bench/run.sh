#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write (build cache, binary, index data, span files) stays in bench/out.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/tmp
export XDG_CONFIG_HOME="$PWD/out/config" # where the go command keeps its telemetry counters
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOTMPDIR="$PWD/out/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o out/bench .
exec out/bench "$@"
