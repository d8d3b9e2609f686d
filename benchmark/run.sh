#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload figures-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# inside the checkout as well.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# Stop git at the checkout: a checkout that is not a repository reports
# "unknown" rather than describing whatever repository encloses it.
describe="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)"

(cd "$root/benchmark" && go build -o "$out/cachebench" .)

cd "$root"
BENCH_GIT_DESCRIBE="$describe" BENCH_OUT="$out" exec "$out/cachebench" "$@"
