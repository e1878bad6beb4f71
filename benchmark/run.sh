#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the Go toolchain
# and the benchmark write (build cache, binary, spill files) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off CGO_ENABLED=0
(cd "$here" && go build -o "$build/mozart-benchmark" .) >&2
exec "$build/mozart-benchmark" -workdir "$build/tmp" "$@"
