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
