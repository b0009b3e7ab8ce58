#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, from the root of a checkout. Everything the build and the run
# write stays inside the checkout, under .bench_build/ and benchmarks/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

bin="$build/harmony-benchmarks"
# Stamp the commit when the checkout is a git repository git can read; a
# checkout that is not (the driver's) builds without the stamp.
(cd "$here" && { go build -o "$bin" . 2>/dev/null || go build -buildvcs=false -o "$bin" .; })

cd "$root"
exec "$bin" "$@"
