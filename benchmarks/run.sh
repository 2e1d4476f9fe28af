#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds occlumbench from source into
# .bench_build at the checkout root (binary, Go build cache and temp
# files all stay inside the checkout) and runs it with the driver's
# arguments. Run it from the checkout root:
#
#   bash benchmarks/run.sh --workload fish --seed 1 --seconds 15 --trace 0
#   bash benchmarks/run.sh            # every workload, every metric
#   bash benchmarks/run.sh -aa        # A/A check of the gated metrics
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
bin="$build/occlumbench"
# The go tool stamps the git revision into the binary when it can; in a
# checkout that is no git repository, or where git refuses, build without.
go -C "$here" build -o "$bin" ./occlumbench 2>"$build/build.log" ||
	go -C "$here" build -buildvcs=false -o "$bin" ./occlumbench

cd "$root"
exec "$bin" -out "$here/out" "$@"
