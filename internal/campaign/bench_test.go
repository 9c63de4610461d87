package campaign

import (
	"runtime"
	"testing"

	"perfskel/internal/nas"
)

// benchGrid is the campaign measured by scripts/bench.sh: CG and MG
// class A on 4 ranks, the paper's five sharing scenarios, two scaling
// factors, with the applications also measured under each scenario.
func benchGrid(b *testing.B) Grid {
	b.Helper()
	cg, err := NASApp("CG", nas.ClassA)
	if err != nil {
		b.Fatal(err)
	}
	mg, err := NASApp("MG", nas.ClassA)
	if err != nil {
		b.Fatal(err)
	}
	return Grid{
		Apps:       []App{cg, mg},
		NRanks:     4,
		Ks:         []int{8, 16},
		MeasureApp: true,
	}
}

func runCampaign(b *testing.B, cfg Config) {
	b.Helper()
	g := benchGrid(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := New(cfg)
		if _, err := eng.PredictAll(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignSerial runs the grid on a single worker: the baseline
// a pre-campaign caller (a plain loop over runs) would pay.
func BenchmarkCampaignSerial(b *testing.B) {
	runCampaign(b, Config{Workers: 1})
}

// BenchmarkCampaignParallel runs the same grid with the default worker
// pool (GOMAXPROCS workers).
func BenchmarkCampaignParallel(b *testing.B) {
	runCampaign(b, Config{Workers: runtime.GOMAXPROCS(0)})
}

// BenchmarkCampaignWarmCache re-runs the grid on an engine whose cache
// is already populated: the steady-state cost of iterating on a campaign
// definition.
func BenchmarkCampaignWarmCache(b *testing.B) {
	g := benchGrid(b)
	eng := New(Config{})
	if _, err := eng.PredictAll(g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.PredictAll(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignRetained reports the heap a campaign engine keeps
// after a grid shaped like skeletond's serve-mix request universe: the
// eight NAS benchmarks at class S on 4, 8 and 16 ranks, the five sharing
// scenarios, K in {2, 4, 8, 16, 32}, on one engine. retained-MB is
// HeapAlloc after a forced collection with the engine still reachable.
func BenchmarkCampaignRetained(b *testing.B) {
	var apps []App
	for _, name := range []string{"BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"} {
		app, err := NASApp(name, nas.ClassS)
		if err != nil {
			b.Fatal(err)
		}
		apps = append(apps, app)
	}
	b.ReportAllocs()
	var retained float64
	for i := 0; i < b.N; i++ {
		eng := New(Config{})
		for _, p := range []int{4, 8, 16} {
			g := Grid{Apps: apps, NRanks: p, Ks: []int{2, 4, 8, 16, 32}}
			if _, err := eng.PredictAll(g); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		retained += float64(ms.HeapAlloc) / 1e6
		runtime.KeepAlive(eng)
		b.StartTimer()
	}
	b.ReportMetric(retained/float64(b.N), "retained-MB")
}
