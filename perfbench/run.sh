#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs it with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload statsat-enum --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build): the binary, the Go
# build cache, temporary files and the statsatd data directories. No
# network access is needed: the module uses the standard library only.
set -euo pipefail

src=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
