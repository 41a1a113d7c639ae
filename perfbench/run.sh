#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, for example
#
#   bash perfbench/run.sh --workload run_dense --seed 3 --seconds 20 --trace 0
#
# Run it from the root of the checkout. The Go build cache, temporary
# files, the binary and the result files all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -out "$out/results" "$@"
