#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source, then
# run it with the arguments given. Everything the build writes — the
# binary, Go's build cache — stays in .bench_build/ at the root of the
# checkout. In a directory that holds only BENCHMARK.json and benchmark/
# the build fails (there is no gompi module to replace), and so does this
# script, before anything is printed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C "$here" -o "$build/gompi-benchmark" .
cd "$root"
exec "$build/gompi-benchmark" "$@"
