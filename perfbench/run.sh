#!/usr/bin/env bash
# Builds zsdb and the benchmark program from source into .bench_build and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare OLD.jsonl NEW.jsonl
#
# Every Go cache and build output stays inside .bench_build.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/zsdb || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/zsdb and perfbench/ are needed)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
go build -o "$out/zsdb" ./cmd/zsdb
(cd perfbench && go build -o "$out/perfbench" .)
if [[ "${1:-}" == "compare" ]]; then
	exec "$out/perfbench" "$@"
fi
exec "$out/perfbench" -root "$PWD" -zsdb "$out/zsdb" "$@"
