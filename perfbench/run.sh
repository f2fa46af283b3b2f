#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the arguments given, from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the multi-process scratch
# directories all stay under .bench_build/ in the checkout. The build
# fails, and so does the run, when the repository's own module is not
# beside perfbench/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out=.bench_build
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/t"
export GOCACHE="$root/$out/gocache" GOTMPDIR="$root/$out/gotmp" GOMODCACHE="$root/$out/gomod"
export GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off
go build -C perfbench -o "$root/$out/perfbench" .
commit="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
# The rank processes of exec-multiproc put their sockets under TMPDIR; a
# relative path keeps socket paths short however deep the checkout is.
PERFBENCH_COMMIT="$commit" TMPDIR="$out/t" exec "$out/perfbench" "$@"
