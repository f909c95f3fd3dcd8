#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload engine-swap --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, binary, spans, profiles)
# stays under .bench_build in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
