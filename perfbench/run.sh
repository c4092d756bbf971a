#!/usr/bin/env bash
# Builds the benchmark and the rtrbenchd daemon from this checkout's sources
# into .bench_build/, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload table1-sweep --seed 1 --seconds 20 --trace 0
#
# Every build artefact, Go cache and configuration entry, trace and daemon
# data directory stays under .bench_build/, so the benchmark reads and
# writes only inside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
go build -o "$build/bin/rtrbenchd" ./cmd/rtrbenchd

exec "$build/bin/perfbench" -daemon-bin "$build/bin/rtrbenchd" -out "$build/out" "$@"
