#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it sits
# in, then runs it. Every build and run artifact stays under .bench_build/
# at the checkout root.
#
#   bash e2ebench/run.sh --workload ingest-4k --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
(
	cd "$root/e2ebench"
	GOENV=off GOPATH="$out/gopath" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/e2ebench" .
) >&2
exec "$out/e2ebench" -dir "$out/run" "$@"
