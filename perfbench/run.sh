#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload batch-calendar --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare runs/parent runs/change
#
# Every build artefact (the binary, the Go build cache, temp files) and
# every file a run writes stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [[ ! -f "${root}/go.mod" || ! -d "${root}/internal" ]]; then
	echo "perfbench: run from the repository root (no go.mod and internal/ in ${root})" >&2
	exit 2
fi
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gotmp" "${build}/gomodcache"
export GOCACHE="${build}/gocache" GOTMPDIR="${build}/gotmp" GOMODCACHE="${build}/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "${here}" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" -root "${root}" "$@"
