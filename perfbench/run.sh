#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   bash perfbench/run.sh [-rate R] --workload W --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache and
# the traced run's spans all go to $CARGO_TARGET_DIR (default
# .bench_build) under the current directory, so nothing is written
# outside it.
set -euo pipefail
out="$(pwd)/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" -spans "$out/perfbench-spans" "$@"
