#!/usr/bin/env bash
# Builds the benchmark from the sources of the tree it is run in, then runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traced run's span files go under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail
out="$(pwd)/${CARGO_TARGET_DIR:-.bench_build}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out/tmp"
(
	cd "$here"
	GOFLAGS= GOWORK=off GOENV=off GOTOOLCHAIN=local GOPROXY=off \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
		go build -o "$out/bin/perfbench" ./cmd/perfbench
) >&2
exec "$out/bin/perfbench" -out "$out/spans" "$@"
