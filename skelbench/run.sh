#!/usr/bin/env bash
# Builds skeletond and the benchmark from source into .bench_build/ and
# runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash skelbench/run.sh --workload campaign-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporaries, binaries)
# stays under .bench_build/ in the checkout. No module is downloaded: the
# repository has no external dependencies.
set -euo pipefail

if [[ ! -f go.mod || ! -f skelbench/go.mod ]]; then
	echo "skelbench: run from the repository root (needs go.mod and skelbench/go.mod)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/skeletond" ./cmd/skeletond
(cd skelbench && go build -o "$out/skelbench" .)
exec "$out/skelbench" -skeletond "$out/skeletond" "$@"
