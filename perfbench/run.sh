#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload steady-mw --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config
# and telemetry files) stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
