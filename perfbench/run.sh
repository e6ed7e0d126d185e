#!/usr/bin/env bash
# Builds udmserve, udmproxy and the benchmark program from the source
# tree this script sits in, then runs the benchmark with the arguments
# given, e.g.
#
#   bash perfbench/run.sh --workload point-small --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binaries, artifacts, logs,
# traces, results) stays under .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

cd "$root"
go build -o "$out/bin/udmserve" ./cmd/udmserve
go build -o "$out/bin/udmproxy" ./cmd/udmproxy
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -workdir "$out" "$@"
