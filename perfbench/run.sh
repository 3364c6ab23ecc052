#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload paper-backbone --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (compiler cache, binary, result and trace files) stays under .bench_build/
# in the current directory, and the go command is kept offline.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOWORK=off
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

if ! go -C "$root/perfbench" build -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed (run from the repository root)" >&2
	exit 3
fi
exec "$out/perfbench" -out "$out" "$@"
