#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload reduce-uniform --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes (build
# cache, module cache, temporary files, the binary) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout. Without the
# repository's sources beside it the build fails and the script exits
# non-zero before printing any result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
