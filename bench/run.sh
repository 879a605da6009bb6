#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given flags, e.g.
#
#   bash bench/run.sh --workload lib-scan --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (binary, Go build cache, temporaries) stays in
# .bench_build at the repository root, and no module download is attempted:
# the module has no dependencies outside the repository.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/dcsuite" .)
exec "$out/dcsuite" "$@"
