#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root, for example:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, binary, spill segments, span
# files) goes under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/perfbench/tmp"

export GOCACHE="$out/perfbench/gocache"
export GOMODCACHE="$out/perfbench/gomodcache"
export GOTMPDIR="$out/perfbench/tmp"
export TMPDIR="$out/perfbench/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export CARGO_TARGET_DIR="$out"

(cd perfbench && go build -o "$out/perfbench/perfbench" .) >&2

PERFBENCH_COMMIT=$(git rev-parse --short=12 HEAD 2>/dev/null || echo none)
PERFBENCH_SOURCE_HASH=$(find . -path ./.git -prune -o -path "./${out#"$root"/}" -prune -o \
	-type f \( -name '*.go' -o -name go.mod \) -print | LC_ALL=C sort |
	xargs -d '\n' cat | sha256sum | cut -c1-16)
export PERFBENCH_COMMIT PERFBENCH_SOURCE_HASH

exec "$out/perfbench/perfbench" "$@"
