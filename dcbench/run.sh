#!/usr/bin/env bash
# Builds dcsprintd, cmd/experiments and the dcbench harness from this
# checkout into .bench_build, then runs the harness with the given flags:
#
#   bash dcbench/run.sh --workload serve-crowd --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build caches and scratch files stay in
# .bench_build, so the benchmark writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dcsprintd || ! -d cmd/experiments ]]; then
	echo "dcbench: run from the dcsprint repository root" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0

go build -o "$out/dcsprintd" ./cmd/dcsprintd >&2
go build -o "$out/experiments" ./cmd/experiments >&2
(cd dcbench && go build -o "$out/dcbench" .) >&2
exec "$out/dcbench" -root "$root" -bin "$out" "$@"
