#!/bin/sh
# Builds the benchmark and runs it from the root of the checkout, keeping
# every file the Go toolchain writes (build cache, temporaries, binaries)
# under .bench_build/ in the checkout.  Arguments go to the benchmark:
#
#   sh bench/run.sh --workload checkin --seed 1 --seconds 20 --trace 0
set -e
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="${GOPATH:-$build/gopath}" GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
