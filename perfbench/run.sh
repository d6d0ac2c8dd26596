#!/usr/bin/env bash
# Builds the hesgx benchmark from source and runs it. Run from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload packed-28 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build in the checkout, or under $CARGO_TARGET_DIR when
# that is set.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the root of a hesgx checkout (no go.mod or internal/ here)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/home"
# HOME points into the build directory too, so the toolchain's own files
# (telemetry counters, config) stay inside the checkout; the module needs
# nothing from the network.
(
	cd "$root/perfbench"
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
		GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off \
		GOFLAGS= GOWORK=off GOENV=off
	go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
