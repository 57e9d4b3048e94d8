#!/usr/bin/env bash
# Builds the benchmark and the daemon it measures, then runs the
# benchmark. Everything the build writes stays under bench/.build in the
# checkout this is run from.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOENV=off GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$build/bin/" . repro/cmd/prefetchd)
exec "$build/bin/bench" "$@"
