#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. The Go build cache, temporary files and the binary stay
# under .bench_build at the checkout root, so a run writes nothing outside
# the checkout. Run it from the checkout root:
#
#	bash bench/run.sh --workload plan-cold --seed 1 --seconds 15 --trace 0
#	bash bench/run.sh -seed 1                     # every workload, one set record
#	bash bench/run.sh -compare bench/baseline/run-1.json bench/baseline/run-2.json
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off

# The benchmark's module replaces the repository module with its parent
# directory; without the repository around it, the build fails here.
go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" "$@"
