#!/usr/bin/env bash
# Builds aimserver and the benchmark harness from source, then runs the
# harness from the repository root. All build output, the Go build cache
# included, stays under .bench_build. Arguments go to the harness:
#
#   bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# A plain `go build` stamps the binary with its VCS revision when the tree
# is a git checkout.
go build -o "$out/aimserver" ./cmd/aimserver
(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" "$@"
