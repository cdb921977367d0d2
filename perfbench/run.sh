#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload mbpta-canrdr --seed 1 --seconds 16 --trace 0
#
# Every build product, cache and temporary file stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build), so a run reads
# and writes nothing outside the checkout and never reaches the network.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
