#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments; with none, every workload runs once (--workload all).
#
#   bench/run.sh                        every end-to-end metric of every workload
#   bench/run.sh --trace 1              the traced runs: per-layer metrics, bench/out/trace-*.json
#   bench/run.sh --workload sessions --seed 7 --seconds 20 --trace 0
#
# Everything the build writes stays inside the checkout: the binary in
# bench/out, the Go caches in .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p bench/out .bench_build
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOMODCACHE="$root/.bench_build/gomod" GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
(cd bench && go build -ldflags "-X main.commit=$commit" -o out/tampperf ./cmd/tampperf)
exec bench/out/tampperf "$@"
