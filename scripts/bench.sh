#!/bin/sh
# bench.sh - measure the telemetry layer's overhead: run the dedicated
# CG workload with the probe layer off (nil sink) and on (full
# collector), then write the comparison to BENCH_telemetry.json at the
# repository root. Extra arguments are passed to `go test` (e.g.
# -benchtime 20x for tighter numbers).
set -eu

cd "$(dirname "$0")/.."

count="${BENCH_COUNT:-5}"

# Simulation core: the CG/MG-shaped event mix (probe off and on), the
# pure compute/sleep steady state, the 64-node flow mix (permutation
# exchange plus gather) and the 64-proc latency mix (compute, then a
# latency timer that starts a flow), in ns per simulation event and
# allocations per event. The seed_* baselines are the same benchmarks
# measured at the pre-optimization seed (full rate recomputation,
# per-event allocations, scheduler round trips) — for the 64-node mix,
# at the engine that still refilled every flow on each flow start or
# finish, and for the latency mix, at the engine that still scanned
# every timer per event and ran the loop on a scheduler goroutine; they
# are constants here so the report always shows the before/after next
# to each other. Writes BENCH_sim.json.
out=BENCH_sim.json

echo "==> go test -bench SimMixOff/On + SimSteadyCompute + SimFlowScale + SimLatencyScale (count=$count)"
go test -run xxx -bench 'BenchmarkSim(MixOff|MixOn|SteadyCompute|FlowScale|LatencyScale)$' \
    -benchmem -count "$count" "$@" ./internal/sim/ | tee /tmp/bench_sim.txt

awk '
function metric(unit,   i) { for (i = 1; i <= NF; i++) if ($i == unit) return $(i-1); return 0 }
/^BenchmarkSimMixOff/        { off += metric("ns/event");  offa += metric("allocs/op") / metric("events/op"); noff++ }
/^BenchmarkSimMixOn/         { on  += metric("ns/event");  ona  += metric("allocs/op") / metric("events/op"); non++ }
/^BenchmarkSimSteadyCompute/ { st  += metric("ns/event");  nst++ }
/^BenchmarkSimFlowScale/     { sc  += metric("ns/event");  nsc++ }
/^BenchmarkSimLatencyScale/  { lt  += metric("ns/event");  nlt++ }
END {
    if (noff == 0 || non == 0 || nst == 0 || nsc == 0 || nlt == 0) { print "no benchmark output" > "/dev/stderr"; exit 1 }
    # Pre-optimization seed, measured with these same benchmarks against
    # the seed engine on the reference machine.
    seed_off = 2080; seed_off_allocs = 11.34; seed_on = 3312; seed_steady = 1612
    seed_scale64 = 1147; seed_latency64 = 749
    moff = off / noff; mon = on / non; mst = st / nst; msc = sc / nsc; mlt = lt / nlt
    printf "{\n"
    printf "  \"benchmark\": \"sim event loop: CG/MG-shaped mix (8 procs, 4 nodes, flows+barriers), probe off/on; 64-node flow mix (permutation + gather), probe off; 64-proc latency mix (compute, latency timer, flow), probe off\",\n"
    printf "  \"runs\": %d,\n", noff
    printf "  \"seed_mix_off_ns_event\": %d,\n", seed_off
    printf "  \"seed_mix_off_allocs_event\": %.2f,\n", seed_off_allocs
    printf "  \"seed_mix_on_ns_event\": %d,\n", seed_on
    printf "  \"seed_steady_ns_event\": %d,\n", seed_steady
    printf "  \"seed_scale64_ns_event\": %d,\n", seed_scale64
    printf "  \"seed_latency64_ns_event\": %d,\n", seed_latency64
    printf "  \"mix_off_ns_event\": %.1f,\n", moff
    printf "  \"mix_off_allocs_event\": %.3f,\n", offa / noff
    printf "  \"mix_on_ns_event\": %.1f,\n", mon
    printf "  \"mix_on_allocs_event\": %.3f,\n", ona / non
    printf "  \"steady_ns_event\": %.1f,\n", mst
    printf "  \"scale64_ns_event\": %.1f,\n", msc
    printf "  \"latency64_ns_event\": %.1f,\n", mlt
    printf "  \"mix_off_speedup\": %.2f,\n", seed_off / moff
    printf "  \"mix_on_speedup\": %.2f,\n", seed_on / mon
    printf "  \"steady_speedup\": %.2f,\n", seed_steady / mst
    printf "  \"scale64_speedup\": %.2f,\n", seed_scale64 / msc
    printf "  \"latency64_speedup\": %.2f,\n", seed_latency64 / mlt
    printf "  \"probe_overhead_ns_event\": %.1f,\n", mon - moff
    printf "  \"probe_overhead_pct\": %.2f\n", 100 * (mon - moff) / moff
    printf "}\n"
}' /tmp/bench_sim.txt > "$out"

echo "==> wrote $out"
cat "$out"

out=BENCH_telemetry.json

echo "==> go test -bench TelemetryOff/On (count=$count)"
go test -run xxx -bench 'BenchmarkTelemetry(Off|On)$' -benchmem -count "$count" "$@" . | tee /tmp/bench_telemetry.txt

# Reduce the runs to mean ns/op per benchmark and the relative overhead,
# plus the uninstrumented run's allocations per op.
awk '
function metric(unit,   i) { for (i = 1; i <= NF; i++) if ($i == unit) return $(i-1); return 0 }
/^BenchmarkTelemetryOff/ { off += $3; offa += metric("allocs/op"); offb += metric("B/op"); noff++ }
/^BenchmarkTelemetryOn/  { on  += $3; non++  }
END {
    if (noff == 0 || non == 0) { print "no benchmark output" > "/dev/stderr"; exit 1 }
    moff = off / noff; mon = on / non
    printf "{\n"
    printf "  \"benchmark\": \"CG class A, 4 ranks, dedicated\",\n"
    printf "  \"runs\": %d,\n", noff
    printf "  \"telemetry_off_ns_op\": %.0f,\n", moff
    printf "  \"telemetry_off_allocs_op\": %.0f,\n", offa / noff
    printf "  \"telemetry_off_bytes_op\": %.0f,\n", offb / noff
    printf "  \"telemetry_on_ns_op\": %.0f,\n", mon
    printf "  \"overhead_pct\": %.2f\n", 100 * (mon - moff) / moff
    printf "}\n"
}' /tmp/bench_telemetry.txt > "$out"

echo "==> wrote $out"
cat "$out"

# Skeleton construction: skeleton.BuildFromTrace at K=8 on an LU class
# S 64-rank trace (simulated once, outside the timer) — the threshold
# search with clustering, loop folding and K-scaling — and the K sweep
# K = 2, 4, 8, 16, 32 built from one shared threshold ladder of the
# same trace. Reports medians over the runs; seed_ns_op is the median of
# BenchmarkConstructScale at the construction code that re-clustered the
# trace at every threshold step, measured in alternating pairs with it.
# Writes BENCH_construct.json.
out=BENCH_construct.json

echo "==> go test -bench 'Construct(Scale|KSweep)' (count=$count)"
go test -run xxx -bench 'BenchmarkConstruct(Scale|KSweep)$' -benchmem -count "$count" "$@" . | tee /tmp/bench_construct.txt

awk '
function metric(unit,   i) { for (i = 1; i <= NF; i++) if ($i == unit) return $(i-1); return 0 }
function median(a, n,   i, j, t) {
    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]; a[j+1] = t }
    return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
}
/^BenchmarkConstructScale/ { n++; ns[n] = metric("ns/op"); ev[n] = metric("ns/trace-event"); al[n] = metric("allocs/op"); by[n] = metric("B/op") }
/^BenchmarkConstructKSweep/ { m++; kns[m] = metric("ns/op"); kal[m] = metric("allocs/op"); kby[m] = metric("B/op") }
END {
    if (n == 0 || m == 0) { print "no benchmark output" > "/dev/stderr"; exit 1 }
    seed = 849764757
    mns = median(ns, n)
    printf "{\n"
    printf "  \"benchmark\": \"skeleton.BuildFromTrace, K=8, LU class S, 64 ranks, dedicated trace\",\n"
    printf "  \"runs\": %d,\n", n
    printf "  \"seed_ns_op\": %d,\n", seed
    printf "  \"ns_op\": %.0f,\n", mns
    printf "  \"ns_trace_event\": %.1f,\n", median(ev, n)
    printf "  \"allocs_op\": %.0f,\n", median(al, n)
    printf "  \"bytes_op\": %.0f,\n", median(by, n)
    printf "  \"speedup\": %.2f,\n", seed / mns
    printf "  \"ksweep_benchmark\": \"skeleton.BuildFromLadder, K=2,4,8,16,32 from one ladder of the same trace\",\n"
    printf "  \"ksweep_ns_op\": %.0f,\n", median(kns, m)
    printf "  \"ksweep_allocs_op\": %.0f,\n", median(kal, m)
    printf "  \"ksweep_bytes_op\": %.0f\n", median(kby, m)
    printf "}\n"
}' /tmp/bench_construct.txt > "$out"

echo "==> wrote $out"
cat "$out"

# Static analysis: the same 200-iteration ring exchange as unrolled
# straight-line code and as a counted loop the symbolic executor folds,
# the cold load of internal/nas (fresh loader: parse and type-check it,
# its module imports and the standard library they reach), plus the
# orderflow dataflow engine — cold-cache summary construction over
# internal/telemetry and the whole-module `skelvet -self` pass.
# Writes BENCH_analysis.json.
out=BENCH_analysis.json

echo "==> go test -bench AnalysisLoopFree/Symexec/LoadCold + Orderflow (count=$count)"
go test -run xxx -bench 'BenchmarkAnalysis(LoopFree|Symexec|LoadCold)$|BenchmarkOrderflow(Summaries|SelfModule)$' \
    -benchmem -count "$count" "$@" ./internal/analysis/ | tee /tmp/bench_analysis.txt

awk '
/^BenchmarkAnalysisLoopFree/     { flat += $3; nflat++ }
/^BenchmarkAnalysisSymexec/      { sym  += $3; nsym++  }
/^BenchmarkAnalysisLoadCold/     { cold += $3; ncold++ }
/^BenchmarkOrderflowSummaries/   { osum += $3; nosum++ }
/^BenchmarkOrderflowSelfModule/  { omod += $3; nomod++ }
END {
    if (nflat == 0 || nsym == 0 || ncold == 0 || nosum == 0 || nomod == 0) { print "no benchmark output" > "/dev/stderr"; exit 1 }
    mflat = flat / nflat; msym = sym / nsym
    printf "{\n"
    printf "  \"benchmark\": \"commgraph extract+match, 200-iteration ring, 4 ranks; cold load of internal/nas; orderflow summaries and self-module pass\",\n"
    printf "  \"runs\": %d,\n", nflat
    printf "  \"loop_free_ns_op\": %.0f,\n", mflat
    printf "  \"symexec_ns_op\": %.0f,\n", msym
    printf "  \"fold_speedup\": %.2f,\n", mflat / msym
    printf "  \"load_cold_ns_op\": %.0f,\n", cold / ncold
    printf "  \"orderflow_summaries_ns_op\": %.0f,\n", osum / nosum
    printf "  \"orderflow_self_module_ns_op\": %.0f\n", omod / nomod
    printf "}\n"
}' /tmp/bench_analysis.txt > "$out"

echo "==> wrote $out"
cat "$out"

# Campaign engine: the CG+MG class A prediction grid (4 ranks, five
# scenarios, K in {8,16}, apps measured under every scenario) run
# serially, on the full worker pool, and against a warm cache. Writes
# BENCH_campaign.json. The campaign grid is expensive, so each
# configuration runs once per count.
out=BENCH_campaign.json
cpus=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

echo "==> go test -bench Campaign(Serial|Parallel|WarmCache) (count=$count)"
go test -run xxx -bench 'BenchmarkCampaign(Serial|Parallel|WarmCache)$' \
    -benchtime 1x -count "$count" "$@" ./internal/campaign/ | tee /tmp/bench_campaign.txt

awk -v cpus="$cpus" '
/^BenchmarkCampaignSerial/    { ser  += $3; nser++  }
/^BenchmarkCampaignParallel/  { par  += $3; npar++  }
/^BenchmarkCampaignWarmCache/ { warm += $3; nwarm++ }
END {
    if (nser == 0 || npar == 0 || nwarm == 0) { print "no benchmark output" > "/dev/stderr"; exit 1 }
    mser = ser / nser; mpar = par / npar; mwarm = warm / nwarm
    printf "{\n"
    printf "  \"benchmark\": \"campaign PredictAll: CG+MG class A, 4 ranks, 5 scenarios, K in {8,16}, measured\",\n"
    printf "  \"runs\": %d,\n", nser
    printf "  \"cpus\": %d,\n", cpus
    printf "  \"serial_ns_op\": %.0f,\n", mser
    printf "  \"parallel_ns_op\": %.0f,\n", mpar
    printf "  \"warm_cache_ns_op\": %.0f,\n", mwarm
    printf "  \"parallel_speedup\": %.2f,\n", mser / mpar
    printf "  \"warm_cache_speedup\": %.2f\n", mser / mwarm
    printf "}\n"
}' /tmp/bench_campaign.txt > "$out"

echo "==> wrote $out"
cat "$out"

# Critical-path profiler: graph construction, analysis and a what-if
# recomputation over the CG class B 4-rank combined run (the run itself
# is simulated once and shared). Writes BENCH_critpath.json.
out=BENCH_critpath.json

echo "==> go test -bench Critpath(Build|Analyze|WhatIf) (count=$count)"
go test -run xxx -bench 'BenchmarkCritpath(Build|Analyze|WhatIf)$' \
    -benchmem -count "$count" "$@" ./internal/telemetry/critpath/ | tee /tmp/bench_critpath.txt

awk '
/^BenchmarkCritpathBuild/   { bld += $3; nbld++ }
/^BenchmarkCritpathAnalyze/ { ana += $3; nana++ }
/^BenchmarkCritpathWhatIf/  { wi  += $3; nwi++  }
END {
    if (nbld == 0 || nana == 0 || nwi == 0) { print "no benchmark output" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"benchmark\": \"critical path on CG class B, 4 ranks, combined\",\n"
    printf "  \"runs\": %d,\n", nbld
    printf "  \"build_ns_op\": %.0f,\n", bld / nbld
    printf "  \"analyze_ns_op\": %.0f,\n", ana / nana
    printf "  \"whatif_ns_op\": %.0f\n", wi / nwi
    printf "}\n"
}' /tmp/bench_critpath.txt > "$out"

echo "==> wrote $out"
cat "$out"

# Static signature synthesis: the cold path (constructor interpretation
# + symbolic execution + signature conversion for CG at class S on 4
# ranks) against the memoized warm path campaign sweeps see after the
# first cell. Writes BENCH_staticsig.json.
out=BENCH_staticsig.json

echo "==> go test -bench StaticExtractCold/StaticInstantiateMemoized (count=$count)"
go test -run xxx -bench 'BenchmarkStatic(ExtractCold|InstantiateMemoized)$' \
    -benchmem -count "$count" "$@" ./internal/analysis/staticsig/ | tee /tmp/bench_staticsig.txt

awk '
/^BenchmarkStaticExtractCold/         { cold += $3; ncold++ }
/^BenchmarkStaticInstantiateMemoized/ { warm += $3; nwarm++ }
END {
    if (ncold == 0 || nwarm == 0) { print "no benchmark output" > "/dev/stderr"; exit 1 }
    mcold = cold / ncold; mwarm = warm / nwarm
    printf "{\n"
    printf "  \"benchmark\": \"static synthesis of CG class S, 4 ranks\",\n"
    printf "  \"runs\": %d,\n", ncold
    printf "  \"extract_cold_ns_op\": %.0f,\n", mcold
    printf "  \"instantiate_memoized_ns_op\": %.0f,\n", mwarm
    printf "  \"memo_speedup\": %.1f\n", mcold / mwarm
    printf "}\n"
}' /tmp/bench_staticsig.txt > "$out"

echo "==> wrote $out"
cat "$out"

# skeletond serving layer: cold request latency (fresh server, every
# request simulates), warm cache-hit latency, and sustained warm
# throughput under client concurrency. Writes BENCH_service.json.
out=BENCH_service.json

echo "==> go test -bench Service(Cold|Warm|WarmParallel) (count=$count)"
go test -run xxx -bench 'BenchmarkService(Cold|Warm|WarmParallel)$' \
    -benchmem -count "$count" "$@" ./internal/service/ | tee /tmp/bench_service.txt

awk '
/^BenchmarkServiceCold/         { cold += $3; ncold++ }
/^BenchmarkServiceWarmParallel/ { rps += $3; nrps++; next }
/^BenchmarkServiceWarm/         { warm += $3; nwarm++ }
END {
    if (ncold == 0 || nwarm == 0 || nrps == 0) { print "no benchmark output" > "/dev/stderr"; exit 1 }
    mcold = cold / ncold; mwarm = warm / nwarm; mrps = rps / nrps
    printf "{\n"
    printf "  \"benchmark\": \"skeletond POST /predict: CG class S, 4 ranks, cpu-one-node, K=8\",\n"
    printf "  \"runs\": %d,\n", ncold
    printf "  \"cold_ns_op\": %.0f,\n", mcold
    printf "  \"warm_ns_op\": %.0f,\n", mwarm
    printf "  \"warm_speedup\": %.1f,\n", mcold / mwarm
    printf "  \"warm_parallel_ns_op\": %.0f,\n", mrps
    printf "  \"warm_parallel_rps\": %.0f\n", 1e9 / mrps
    printf "}\n"
}' /tmp/bench_service.txt > "$out"

echo "==> wrote $out"
cat "$out"
