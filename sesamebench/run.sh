#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash sesamebench/run.sh --workload fleet_1k --seed 1 --seconds 10 --trace 0
#
# Every build product and scratch file stays under .bench_build/ in
# the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
# The go command keeps its build cache, module cache, temporary files
# and telemetry counters (under the user config directory) here rather
# than in the home directory.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
if [ -z "${SESAMEBENCH_COMMIT:-}" ]; then
	SESAMEBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
	export SESAMEBENCH_COMMIT
fi
(cd "$root/sesamebench" && go build -o "$build/sesamebench" .)
exec "$build/sesamebench" "$@"
