#!/usr/bin/env bash
# Builds the benchmark and cmd/hipecvm from source and runs one workload:
#
#   bash perfbench/run.sh --workload net-hot --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# repository root: the Go build cache, the binaries, and the run's store
# and trace files.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/work"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
(cd "$root" && go build -o "$out/hipecvm" ./cmd/hipecvm) >&2

exec "$out/perfbench" -hipecvm "$out/hipecvm" -workdir "$out/work" "$@"
