#!/usr/bin/env bash
# Builds the shuffle benchmark from the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload stream-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under <checkout>/.bench_build:
# the Go build cache, the binary, the workloads' scratch files and traces.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -work "$out" "$@"
