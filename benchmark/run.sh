#!/usr/bin/env bash
# The benchmark's one command: build the binary from source into the
# checkout's .bench_build/ (with the Go build cache there too, so nothing
# outside the checkout is written), then run it from the checkout root.
#
#   bash benchmark/run.sh --workload read_mostly --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/pclbench" .)
cd "$root"
exec "$build/pclbench" "$@"
