#!/usr/bin/env bash
# Build the benchmark from source and run it, keeping every file the build and
# the run create under .bench_build/ of the directory it is started from (the
# root of a checkout). All arguments go to the benchmark binary.
set -euo pipefail

src="$(cd "$(dirname "$0")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"

export TMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$src" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
