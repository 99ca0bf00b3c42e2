#!/usr/bin/env bash
# Builds lvmmbench from the checkout's source and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload stream_lw --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the results all stay under
# .bench_build/ in the checkout, and the toolchain is kept offline, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -buildvcs=false -o "$build/lvmmbench" ./cmd/lvmmbench) >&2
cd "$root"
exec "$build/lvmmbench" "$@"
