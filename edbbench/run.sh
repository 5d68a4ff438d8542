#!/usr/bin/env bash
# Builds the benchmark and edb-serve from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash edbbench/run.sh --workload reuse --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, the server's store and
# the span files of traced runs. The build never uses the network.
set -euo pipefail

root="$(pwd)"
bench="$root/edbbench"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=-mod=mod
mkdir -p "$GOCACHE" "$GOTMPDIR" "$out/bin" "$out/work"

(cd "$bench" && go build -o "$out/bin/edbbench" . && go build -o "$out/bin/edb-serve" edb/cmd/edb-serve)

exec "$out/bin/edbbench" -serve-bin "$out/bin/edb-serve" -work-dir "$out/work" "$@"
