// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation. Each BenchmarkFigureN regenerates the corresponding figure
// from the shared evaluation dataset (computed once per process) and
// prints it, so
//
//	go test -bench=Figure -benchtime=1x
//
// reproduces the paper's entire results section. The remaining benchmarks
// measure the substrate itself (simulator event rate, message matching,
// trace compression, skeleton construction).
package perfskel_test

import (
	"fmt"
	"sync"
	"testing"

	"perfskel"
	"perfskel/internal/cluster"
	"perfskel/internal/experiments"
	"perfskel/internal/mpi"
	"perfskel/internal/signature"
	"perfskel/internal/skeleton"
	"perfskel/internal/telemetry"
	"perfskel/internal/trace"
)

var (
	resOnce sync.Once
	res     *experiments.Results
	resErr  error
)

// paperResults runs the full evaluation once per test process.
func paperResults(b *testing.B) *experiments.Results {
	b.Helper()
	resOnce.Do(func() {
		res, resErr = experiments.Run(experiments.Config{})
	})
	if resErr != nil {
		b.Fatal(resErr)
	}
	return res
}

var printed sync.Map

func printOnce(key, text string) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Println(text)
	}
}

func BenchmarkFigure2CommFraction(b *testing.B) {
	r := paperResults(b)
	b.ResetTimer()
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = r.Figure2()
	}
	b.StopTimer()
	printOnce("fig2", t.String())
}

func BenchmarkFigure3ErrorByBenchmark(b *testing.B) {
	r := paperResults(b)
	b.ResetTimer()
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = r.Figure3()
	}
	b.StopTimer()
	printOnce("fig3", t.String())
}

func BenchmarkFigure4SmallestGoodSkeleton(b *testing.B) {
	r := paperResults(b)
	b.ResetTimer()
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = r.Figure4()
	}
	b.StopTimer()
	printOnce("fig4", t.String())
}

func BenchmarkFigure5ErrorBySize(b *testing.B) {
	r := paperResults(b)
	b.ResetTimer()
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = r.Figure5()
	}
	b.StopTimer()
	printOnce("fig5", t.String())
}

func BenchmarkFigure6ErrorByScenario(b *testing.B) {
	r := paperResults(b)
	b.ResetTimer()
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = r.Figure6()
	}
	b.StopTimer()
	printOnce("fig6", t.String())
}

func BenchmarkFigure7Baselines(b *testing.B) {
	r := paperResults(b)
	b.ResetTimer()
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = r.Figure7()
	}
	b.StopTimer()
	printOnce("fig7", t.String()+
		fmt.Sprintf("\nOverall average prediction error: %.1f%%\n", r.OverallAverageError()))
}

// --- substrate micro-benchmarks ---

// BenchmarkSimComputeEvents measures the raw discrete-event rate of the
// simulation engine under CPU contention.
func BenchmarkSimComputeEvents(b *testing.B) {
	cl := cluster.Build(cluster.Testbed(4), cluster.CPUAllNodes(4))
	n := b.N
	_, err := mpi.Run(cl, 4, mpi.Config{}, nil, func(c *mpi.Comm) {
		for i := 0; i < n/4+1; i++ {
			c.Compute(0.001)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMPIPingPong measures point-to-point round trips.
func BenchmarkMPIPingPong(b *testing.B) {
	cl := cluster.Build(cluster.Testbed(2), cluster.Dedicated())
	n := b.N
	_, err := mpi.Run(cl, 2, mpi.Config{}, nil, func(c *mpi.Comm) {
		for i := 0; i < n; i++ {
			if c.Rank() == 0 {
				c.Send(1, 1, 1024)
				c.Recv(1, 2)
			} else {
				c.Recv(0, 1)
				c.Send(0, 2, 1024)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchCollective runs op b.N times on every rank of a dedicated
// testbed with one rank per node, once per world size in 4 and 16.
func benchCollective(b *testing.B, op func(c *mpi.Comm)) {
	for _, ranks := range []int{4, 16} {
		b.Run(fmt.Sprintf("p=%d", ranks), func(b *testing.B) {
			b.ReportAllocs()
			cl := cluster.Build(cluster.Testbed(ranks), cluster.Dedicated())
			n := b.N
			_, err := mpi.Run(cl, ranks, mpi.Config{}, nil, func(c *mpi.Comm) {
				for i := 0; i < n; i++ {
					op(c)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkMPIAllreduce measures the collective path: one 8-byte
// Allreduce per op.
func BenchmarkMPIAllreduce(b *testing.B) {
	benchCollective(b, func(c *mpi.Comm) { c.Allreduce(8) })
}

// BenchmarkMPIAlltoall measures the all-pairs exchange: one Alltoall of
// 1 KiB per pair per op.
func BenchmarkMPIAlltoall(b *testing.B) {
	benchCollective(b, func(c *mpi.Comm) { c.Alltoall(1024) })
}

// mgTrace builds one MG class S trace for the compression benchmarks.
func mgTrace(b *testing.B) *trace.Trace {
	b.Helper()
	env := perfskel.NewTestbed(4, perfskel.Dedicated())
	app, err := perfskel.NASApp("MG", perfskel.ClassS)
	if err != nil {
		b.Fatal(err)
	}
	tr, _, err := env.Trace(4, app)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkSignatureBuild measures trace-to-signature compression
// including the iterative threshold search.
func BenchmarkSignatureBuild(b *testing.B) {
	tr := mgTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signature.Build(tr, signature.Options{TargetRatio: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkeletonBuild measures signature-to-skeleton construction.
func BenchmarkSkeletonBuild(b *testing.B) {
	tr := mgTrace(b)
	sig, err := signature.Build(tr, signature.Options{TargetRatio: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := skeleton.Build(sig, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// luScaleTrace is the dedicated trace of rank-scale's most expensive
// build, LU class S on 64 ranks.
func luScaleTrace(b *testing.B) *trace.Trace {
	const ranks = 64
	app, err := perfskel.NASApp("LU", perfskel.ClassS)
	if err != nil {
		b.Fatal(err)
	}
	tr, _, err := perfskel.NewTestbed(ranks, perfskel.Dedicated()).Trace(ranks, app)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkConstructScale measures the whole trace-to-skeleton
// construction of skeleton.BuildFromTrace — the threshold search with
// clustering, loop folding and K-scaling — on rank-scale's most
// expensive build: LU class S on 64 ranks at K = 8. The trace is
// simulated once, outside the timer.
func BenchmarkConstructScale(b *testing.B) {
	tr := luScaleTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := skeleton.BuildFromTrace(tr, 8, skeleton.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/trace-event")
}

// BenchmarkConstructKSweep measures the skeletons a K sweep builds from
// one trace, as serve-mix and campaign grids request them: K = 2, 4, 8,
// 16 and 32 from one shared threshold ladder of the same LU trace.
func BenchmarkConstructKSweep(b *testing.B) {
	tr := luScaleTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := signature.NewLadder(tr)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{2, 4, 8, 16, 32} {
			if _, _, err := skeleton.BuildFromLadder(l, k, skeleton.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/trace-event")
}

// BenchmarkSkeletonExecute measures running a small skeleton on the
// simulated testbed.
func BenchmarkSkeletonExecute(b *testing.B) {
	tr := mgTrace(b)
	sig, err := signature.Build(tr, signature.Options{TargetRatio: 10})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := skeleton.Build(sig, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := cluster.Build(cluster.Testbed(4), cluster.Dedicated())
		if _, err := skeleton.Run(prog, cl, mpi.Config{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSourceGeneration measures skeleton-to-C rendering.
func BenchmarkCSourceGeneration(b *testing.B) {
	tr := mgTrace(b)
	sig, err := signature.Build(tr, signature.Options{TargetRatio: 10})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := skeleton.Build(sig, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := skeleton.CSource(prog); len(s) == 0 {
			b.Fatal("empty source")
		}
	}
}

// --- ablation and extension benchmarks ---

// BenchmarkAblationScaleMode regenerates the communication-scaling
// ablation table (byte vs time scaling under shaped links).
func BenchmarkAblationScaleMode(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.AblationScaleMode(4)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("abl-scale", t.String())
}

// BenchmarkAblationQHeuristic regenerates the threshold-selection ablation.
func BenchmarkAblationQHeuristic(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.AblationQHeuristic(4)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("abl-q", t.String())
}

// BenchmarkAblationEagerThreshold regenerates the protocol-boundary ablation.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.AblationEagerThreshold(4)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("abl-eager", t.String())
}

// BenchmarkAblationCrossTraffic regenerates the stochastic-traffic
// robustness table.
func BenchmarkAblationCrossTraffic(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.AblationCrossTraffic(4)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("abl-traffic", t.String())
}

// BenchmarkExtensionProcScaling regenerates the cross-processor-count
// prediction table (paper section 5's extension).
func BenchmarkExtensionProcScaling(b *testing.B) {
	var t experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.ExtensionProcScaling(4, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("ext-proc", t.String())
}

// --- telemetry overhead benchmarks ---

// benchCG runs CG class A on 4 dedicated ranks, instrumented when col is
// non-nil. The pair BenchmarkTelemetryOff/On measures the probe layer's
// overhead on a fixed workload; the nil-sink path is the one every
// uninstrumented run pays, so Off must stay within noise of the seed.
func benchCG(b *testing.B, instrument bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		app, err := perfskel.NASApp("CG", perfskel.ClassA)
		if err != nil {
			b.Fatal(err)
		}
		var sink telemetry.Sink
		cfg := mpi.Config{}
		if instrument {
			col := telemetry.NewCollector()
			sink = col
			cfg.Probe = col
		}
		cl := cluster.BuildProbed(cluster.Testbed(4), cluster.Dedicated(), sink)
		if _, err := mpi.Run(cl, 4, cfg, nil, app); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNASRunAllocBudget pins the allocations of a whole uninstrumented
// NAS run: CG class S on 4 dedicated ranks. Blocking calls recycle their
// messages and receive requests through per-world free lists, so the
// count is set-up (cluster, ranks, free lists), about 170, rather than
// per message. The budget leaves modest headroom for set-up changes.
func TestNASRunAllocBudget(t *testing.T) {
	const budget = 250
	app, err := perfskel.NASApp("CG", perfskel.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		cl := cluster.Build(cluster.Testbed(4), cluster.Dedicated())
		if _, err := mpi.Run(cl, 4, mpi.Config{}, nil, app); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per CG class S run", allocs)
	if allocs > budget {
		t.Fatalf("CG class S run allocates %.0f times, want <= %d", allocs, budget)
	}
}

// BenchmarkTelemetryOff measures the dedicated CG workload with a nil
// sink: every probe emission site is behind a nil check, so this is the
// zero-instrumentation baseline.
func BenchmarkTelemetryOff(b *testing.B) { benchCG(b, false) }

// BenchmarkTelemetryOn measures the same workload with a full collector
// attached (metrics, spans, utilisation series).
func BenchmarkTelemetryOn(b *testing.B) { benchCG(b, true) }

// BenchmarkNASClassBSuite measures running the whole class B suite
// dedicated — the simulator's end-to-end throughput on real workloads.
func BenchmarkNASClassBSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"MG", "IS"} {
			app, err := perfskel.NASApp(name, perfskel.ClassB)
			if err != nil {
				b.Fatal(err)
			}
			env := perfskel.NewTestbed(4, perfskel.Dedicated())
			if _, err := env.Run(4, app); err != nil {
				b.Fatal(err)
			}
		}
	}
}
