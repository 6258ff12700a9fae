#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the checkout root
# and runs it with the arguments given. Everything the build writes (Go build
# cache included) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
