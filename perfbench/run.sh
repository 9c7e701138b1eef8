#!/usr/bin/env bash
# Builds the perfbench benchmark from this checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload uncoalesced --seed 7 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, result files,
# CPU profiles) stays under .bench_build/ in the checkout. Outside a
# full checkout (no ../go.mod for the module's replace directive) the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
