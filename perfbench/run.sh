#!/usr/bin/env bash
# Runs the cqad benchmark (a main package in this directory) from the root
# of a checkout, keeping every build product under .bench_build:
#
#   bash perfbench/run.sh --workload fd-live --seed 1 --seconds 20 --trace 0
#
# See the package doc in main.go for workloads, metrics and flags.
set -euo pipefail
root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/cqad || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a full checkout (go.mod, cmd/cqad and perfbench/ needed)" >&2
	exit 2
fi
mkdir -p .bench_build/gocache .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export TMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
exec go -C perfbench run . --root "$root" "$@"
