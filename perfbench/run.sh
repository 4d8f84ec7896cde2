#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload; every
# argument is passed through:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The Go build cache, the binary and the toolchain's config all stay
# under .bench_build/ in the checkout. The benchmark is its own module
# (perfbench/go.mod) that builds the repository's packages from the
# directory above it, so it fails to build outside a full checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
