#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it, passing every argument through. Run it from the root of
# the repository:
#
#   bash genesysbench/run.sh --workload evolve-ram --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and each run's scratch files stay in
# .bench_build at the root, so nothing is written outside the checkout
# and no module is fetched.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/genesysbench" && go build -o "$build/genesysbench" .)
exec "$build/genesysbench" -dir "$build" "$@"
