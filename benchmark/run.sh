#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there. Everything the Go toolchain writes (build
# cache, module path, telemetry) is pinned inside .bench_build/ so a run
# touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
GOTOOLCHAIN=local GOPROXY=off \
	go build -C "$here" -o "$build/jsbench" .
cd "$root"
exec "$build/jsbench" "$@"
