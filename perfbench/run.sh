#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it from the
# checkout root. Every build artefact, cache and span file stays under
# .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload hot-mix --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
