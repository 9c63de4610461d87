#!/bin/sh
# bench.sh - regenerate every committed BENCH_*.json at the repository
# root: the sim event loop, the telemetry overhead and mpi collectives,
# skeleton construction, static analysis, the campaign engine, the
# critical-path profiler, static signature synthesis and skeletond. Each
# suite's `go test -bench` output goes to a raw file, and cmd/benchjson
# reduces it to the median of every reported unit per benchmark, so all
# eight files share one schema. Compare two commits by running the script
# on both in one session on one machine; the files carry no baselines.
#
# BENCH_COUNT sets the repetitions per benchmark (default 5). Extra
# arguments are passed to every `go test` (e.g. -benchtime 20x). A
# failing `go test` or reducer stops the script and leaves that suite's
# BENCH file untouched.
set -eu

cd "$(dirname "$0")/.."

count="${BENCH_COUNT:-5}"
raw=$(mktemp -d)
trap 'rm -rf "$raw"' EXIT
go build -o "$raw/benchjson" ./cmd/benchjson

# fail NAME prints the suite's raw output and stops the script.
fail() {
    cat "$raw/$1.txt" >&2
    echo "bench.sh: BENCH_$1.json not written" >&2
    exit 1
}

# reduce NAME NOTE turns the raw output into BENCH_NAME.json. The
# reducer also rejects a benchmark that failed on a later -count
# repetition, which `go test -bench` reports with exit status 0.
reduce() {
    "$raw/benchjson" "$2" < "$raw/$1.txt" > "$raw/$1.json" || fail "$1"
    mv "$raw/$1.json" "BENCH_$1.json"
    echo "==> wrote BENCH_$1.json"
}

echo "==> sim (count=$count)"
go test -run '^$' -bench 'BenchmarkSim(MixOff|MixOn|SteadyCompute|FlowScale|LatencyScale|RankCurve)$' \
    -benchmem -count "$count" "$@" ./internal/sim/ > "$raw/sim.txt" || fail sim
reduce sim "sim event loop: CG/MG-shaped mix (8 procs, 4 nodes, flows+barriers) probe off/on; compute/sleep steady state; 64-node flow mix; latency mix on 64 procs and over 4-256 procs"

echo "==> telemetry (count=$count)"
go test -run '^$' -bench 'BenchmarkTelemetry(Off|On)$|BenchmarkMPI(Allreduce|Alltoall)$' \
    -benchmem -count "$count" "$@" . > "$raw/telemetry.txt" || fail telemetry
reduce telemetry "one CG class A run, 4 ranks, dedicated, without and with the full telemetry collector; one mpi Allreduce (8 B) and Alltoall (1 KiB per pair) on 4 and 16 ranks"

echo "==> construct (count=$count)"
go test -run '^$' -bench 'BenchmarkConstruct(Scale|KSweep)$' \
    -benchmem -count "$count" "$@" . > "$raw/construct.txt" || fail construct
reduce construct "skeleton.BuildFromTrace at K=8 on an LU class S 64-rank trace; K=2,4,8,16,32 from one ladder of the same trace"

echo "==> analysis (count=$count)"
go test -run '^$' -bench 'BenchmarkAnalysis(LoopFree|Symexec|LoadCold)$|BenchmarkOrderflow(Summaries|Corpus)$' \
    -benchmem -count "$count" "$@" ./internal/analysis/ > "$raw/analysis.txt" || fail analysis
reduce analysis "commgraph extract+match of a 200-iteration ring, unrolled and as a folded loop; cold load of internal/nas; orderflow summaries of internal/telemetry, and the orderflow rule over frozen copies of internal/telemetry and internal/stats"

echo "==> campaign (count=$count)"
go test -run '^$' -bench 'BenchmarkCampaign(Serial|Parallel|WarmCache|Retained)$' \
    -benchtime 1x -benchmem -count "$count" "$@" ./internal/campaign/ > "$raw/campaign.txt" || fail campaign
reduce campaign "campaign PredictAll: CG+MG class A, 4 ranks, 5 scenarios, K in {8,16}, measured; serial, full worker pool, warm cache; retained-MB: heap kept by one engine after the 8 NAS apps at class S on 4/8/16 ranks, 5 scenarios, K in {2,4,8,16,32}"

echo "==> critpath (count=$count)"
go test -run '^$' -bench 'BenchmarkCritpath(Build|Analyze|WhatIf)$' \
    -benchmem -count "$count" "$@" ./internal/telemetry/critpath/ > "$raw/critpath.txt" || fail critpath
reduce critpath "critical path of the CG class B 4-rank combined run: graph build, analysis, what-if"

echo "==> staticsig (count=$count)"
go test -run '^$' -bench 'BenchmarkStatic(ExtractCold|InstantiateMemoized)$' \
    -benchmem -count "$count" "$@" ./internal/analysis/staticsig/ > "$raw/staticsig.txt" || fail staticsig
reduce staticsig "static synthesis of CG class S on 4 ranks: cold extraction and memoized re-instantiation"

echo "==> service (count=$count)"
go test -run '^$' -bench 'BenchmarkService(Cold|StaticCold|Warm|WarmParallel)$' \
    -benchmem -count "$count" "$@" ./internal/service/ > "$raw/service.txt" || fail service
reduce service "skeletond POST /predict, CG class S, 4 ranks, cpu-one-node, K=8: cold, static from source_pkg internal/nas on a fresh server (cold load included), warm cache hit, warm under client concurrency"
