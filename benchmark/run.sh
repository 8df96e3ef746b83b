#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ under the current directory (the root of a checkout) and runs
# it with the arguments given. Everything the Go toolchain writes - build
# cache, module cache, temporary files - is kept under .bench_build/, so a
# run reads and writes only inside the checkout. In a directory that lacks
# the repo's sources the build fails and so does this script.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/gotmp"

export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomodcache
export GOTMPDIR=$out/gotmp
export GOPATH=$out/gopath
export GOFLAGS=-modcacherw
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go build -C "$root/benchmark" -o "$out/lifecycle-benchmark" .
exec "$out/lifecycle-benchmark" "$@"
