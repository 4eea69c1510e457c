#!/usr/bin/env bash
# Builds the dxbsp benchmark driver (package bench of the repository's
# module) from source and runs it from the root of the checkout. Every
# file the build and the run write stays under bench/.build/: the Go build
# cache, the driver binary, and (the driver's -workdir default) journals
# and span files.
#
#   bash bench/run.sh --workload expansion-scalar --seed 7 --seconds 10 --trace 0
#   bash bench/run.sh                      # all six workloads
#   bash bench/run.sh --trace 1            # per-layer metrics
#
# The driver needs the repository's go.mod and Go sources around bench/;
# without them the build fails and the script exits non-zero.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/bench/.build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

cd "$root"
go build -o "$build/dxbsp-bench" ./bench
exec "$build/dxbsp-bench" "$@"
