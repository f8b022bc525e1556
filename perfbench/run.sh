#!/usr/bin/env bash
# Builds cmd/serve and the load generator from this checkout, then runs
# one benchmark workload; every argument is passed to the generator.
#
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build
# cache and the traced run's span files stay under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/serve" ./cmd/serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -serve "$out/serve" -out "$out" "$@"
