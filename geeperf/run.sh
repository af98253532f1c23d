#!/usr/bin/env bash
# Builds geeserve and the benchmark from the checkout this is run in,
# then runs one workload. Run from the repository root:
#
#   bash geeperf/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Every build product and temporary file stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/geeperf"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bin/" ./cmd/geeserve ./geeperf >&2
exec "$build/bin/geeperf" -geeserve "$build/bin/geeserve" -out "$root/geeperf/out" "$@"
