#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# repository root, for example:
#
#   bash servebench/run.sh --workload small-contracts --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root: the Go build cache, the binary, the fleet's store
# directories (removed when the run ends) and the traced run's span file.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/servebench" && go build -o "$out/servebench" .)
cd "$root"
exec "$out/servebench" --workdir "$out" "$@"
