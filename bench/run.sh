#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the Go toolchain writes (build cache, temp files, the
# binary) stays under .bench_build/ at the checkout root, so a run
# touches nothing outside the checkout. Arguments pass through to the
# program (see README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" GOENV=off GOFLAGS=
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
# HOME moves too, for the build only: the go command keeps telemetry
# counters under the user's config directory.
(cd "$here" && HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" go build -o "$build/hgbench" .)
cd "$root"
exec "$build/hgbench" "$@"
