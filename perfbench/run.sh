#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from the
# repository root, with the benchmark's own flags:
#
#   bash perfbench/run.sh --workload hot-routed --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under
# .bench_build/ in the current directory; nothing is fetched.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
