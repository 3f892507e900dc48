#!/usr/bin/env bash
# Builds and runs the serving benchmark. Run it from the repository root:
#
#   bash servebench/run.sh --workload hot-zipf --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (the Go build cache, the binary,
# the span files, the toolchain's own config) stays under .bench_build in
# the current directory.
set -euo pipefail
out="$PWD/.bench_build/servebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/servebench" .)
exec "$out/servebench" -out "$out" "$@"
