#!/usr/bin/env bash
# Builds the benchmark and gables-repro from this checkout into .bench_build
# and runs the benchmark there:
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare old.txt new.txt
#
# The Go build cache and temporary files stay inside .bench_build, so the
# benchmark reads and writes nothing outside the checkout but the toolchain.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off GOWORK=off GOENV=off
go -C perfbench build -o "$out/perfbench" .
go -C perfbench build -o "$out/perfbench-spawn" ./spawn
go build -o "$out/gables-repro" ./cmd/gables-repro
exec "$out/perfbench" -root "$root" -repro "$out/gables-repro" -spawn "$out/perfbench-spawn" "$@"
