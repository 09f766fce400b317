#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash mpbench/run.sh --workload health-http --seed 1 --seconds 25 --trace 0
# Run from the repository root. Build outputs, the Go build cache and the Go
# command's temporary and configuration files stay under .bench_build/ in the
# working directory.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/tmp" "${out}/config"
export GOCACHE="${out}/go-cache" GOPATH="${out}/gopath" GOTMPDIR="${out}/tmp" \
  XDG_CONFIG_HOME="${out}/config" GOTOOLCHAIN=local GOENV=off
(cd "${root}/mpbench" && go build -o "${out}/mpbench-bin" .)
exec "${out}/mpbench-bin" "$@"
