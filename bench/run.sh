#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds bench/e2e from source and runs
# it with the driver's arguments. Run from the root of a checkout:
#
#   bash bench/run.sh --workload browse-warm --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, toolchain state)
# goes under .bench_build/ in the checkout, and nothing is fetched. The
# first run compiles the standard library into that cache and takes about
# a minute; later runs reuse it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false \
	go build -C "$here/e2e" -o "$out/minos-e2e" .
exec "$out/minos-e2e" "$@"
