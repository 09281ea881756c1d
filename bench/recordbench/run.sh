#!/usr/bin/env bash
# Builds recordbench and runs it from the repository root, passing every
# argument through:
#
#   bash bench/recordbench/run.sh --workload compile --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and binaries all live under
# .bench_build in the working directory, so a run reads and writes nothing
# outside it.  Without the repository around bench/recordbench the build
# fails and the script exits non-zero.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C bench/recordbench build -o "$build/bin/recordbench" .
exec "$build/bin/recordbench" "$@"
