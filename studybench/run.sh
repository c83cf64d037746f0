#!/usr/bin/env bash
# run.sh — build FAST's binaries and the study benchmark from source,
# then run the benchmark. Run it from the repository root:
#
#   bash studybench/run.sh --workload decode-pareto --seed 1 --seconds 24 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory: the Go build cache, temporary files, the
# binaries, scratch checkpoint stores and traces.
set -euo pipefail

root=$(pwd)
b="$root/.bench_build/studybench"
mkdir -p "$b/bin" "$b/work" "$b/tmp" "$b/config"
export GOCACHE="$b/gocache" GOMODCACHE="$b/gomodcache" GOPATH="$b/gopath" \
	GOTMPDIR="$b/tmp" TMPDIR="$b/tmp" XDG_CONFIG_HOME="$b/config" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off

go build -o "$b/bin/" ./cmd/fast-worker
(cd studybench && go build -o "$b/bin/studybench" .)
exec "$b/bin/studybench" -bin "$b/bin" -work "$b/work" "$@"
