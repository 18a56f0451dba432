#!/usr/bin/env bash
# Builds the campaign benchmark from the sources of the checkout it is run
# from, then runs it. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep-resident --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary, profiles,
# per-cell results) goes under $CARGO_TARGET_DIR, or .bench_build when that
# is unset, inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOWORK=off
export CGO_ENABLED=0
export GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
