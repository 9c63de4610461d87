package experiments

import (
	"strings"
	"testing"
)

// reducedCfg keeps the test matrix small: two benchmarks, two sizes.
func reducedCfg() Config {
	return Config{
		Ranks:      4,
		Benchmarks: []string{"MG", "IS"},
		Sizes:      []float64{5, 1},
	}
}

func runReduced(t *testing.T) *Results {
	t.Helper()
	res, err := Run(reducedCfg())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunProducesCompleteDataset(t *testing.T) {
	res := runReduced(t)
	if len(res.Scenarios) != 5 {
		t.Fatalf("scenarios = %v", res.Scenarios)
	}
	for _, name := range res.Cfg.Benchmarks {
		bd := res.Benches[name]
		if bd == nil {
			t.Fatalf("no data for %s", name)
		}
		if bd.AppDedicated <= 0 || bd.TraceEvents == 0 {
			t.Errorf("%s: dedicated %v, events %d", name, bd.AppDedicated, bd.TraceEvents)
		}
		if bd.MinGood <= 0 || bd.MinGood > bd.AppDedicated {
			t.Errorf("%s: min good %v out of range", name, bd.MinGood)
		}
		if bd.ClassSDed <= 0 || bd.ClassSDed >= 1 {
			t.Errorf("%s: class S dedicated %v, want (0,1)", name, bd.ClassSDed)
		}
		for _, sc := range res.Scenarios {
			if bd.AppScenario[sc] < bd.AppDedicated {
				t.Errorf("%s %s: shared run %v faster than dedicated %v",
					name, sc, bd.AppScenario[sc], bd.AppDedicated)
			}
			if bd.ClassSScen[sc] <= 0 {
				t.Errorf("%s %s: missing class S time", name, sc)
			}
		}
		for _, size := range res.Cfg.Sizes {
			sd := bd.Skels[size]
			if sd == nil {
				t.Fatalf("%s: no %g s skeleton", name, size)
			}
			if sd.K < 1 {
				t.Errorf("%s %g: K=%d", name, size, sd.K)
			}
			// The skeleton's dedicated time should be near its target.
			if sd.Dedicated < size/3 || sd.Dedicated > size*3 {
				t.Errorf("%s %g s skeleton ran %.2f s dedicated", name, size, sd.Dedicated)
			}
			for _, sc := range res.Scenarios {
				if sd.Scenario[sc] <= 0 {
					t.Errorf("%s %g %s: missing skeleton time", name, size, sc)
				}
			}
		}
	}
}

func TestSkeletonErrorsAreSmall(t *testing.T) {
	res := runReduced(t)
	for _, name := range res.Cfg.Benchmarks {
		for _, size := range res.Cfg.Sizes {
			for _, sc := range res.Scenarios {
				if e := res.Error(name, size, sc); e > 30 {
					t.Errorf("%s %g s %s: error %.1f%%, want < 30%%", name, size, sc, e)
				}
			}
		}
	}
	if avg := res.OverallAverageError(); avg > 15 {
		t.Errorf("overall average error %.1f%%, want < 15%%", avg)
	}
}

func TestBaselinesAreWorseThanSkeletons(t *testing.T) {
	// The paper's central comparison (Figure 7): custom skeletons beat the
	// Average and Class S baselines decisively.
	res := runReduced(t)
	var skelAvg float64
	size := res.Cfg.Sizes[0] // 5 s skeletons
	for _, name := range res.Cfg.Benchmarks {
		skelAvg += res.Error(name, size, figure7Scenario)
	}
	skelAvg /= float64(len(res.Cfg.Benchmarks))

	avgBase := 0.0
	for _, e := range res.AverageBaselineErrors(figure7Scenario) {
		avgBase += e
	}
	avgBase /= float64(len(res.Cfg.Benchmarks))
	clsBase := 0.0
	for _, e := range res.ClassSErrors(figure7Scenario) {
		clsBase += e
	}
	clsBase /= float64(len(res.Cfg.Benchmarks))

	if avgBase < 2*skelAvg {
		t.Errorf("average baseline %.1f%% not clearly worse than skeletons %.1f%%", avgBase, skelAvg)
	}
	if clsBase < 2*skelAvg {
		t.Errorf("class S baseline %.1f%% not clearly worse than skeletons %.1f%%", clsBase, skelAvg)
	}
}

func TestFigureTablesWellFormed(t *testing.T) {
	res := runReduced(t)
	figs := res.AllFigures()
	if len(figs) != 6 {
		t.Fatalf("figures = %d", len(figs))
	}
	for _, f := range figs {
		if f.Title == "" || len(f.Header) == 0 || len(f.Rows) == 0 {
			t.Errorf("figure %q malformed", f.Title)
		}
		for _, row := range f.Rows {
			if len(row) != len(f.Header) {
				t.Errorf("%s: row %v has %d cells for %d columns", f.Title, row, len(row), len(f.Header))
			}
		}
		if s := f.String(); !strings.Contains(s, f.Header[0]) {
			t.Errorf("%s: rendering lost the header", f.Title)
		}
	}
	// Figure 2: one application row plus one row per skeleton size per
	// benchmark.
	f2 := res.Figure2()
	want := len(res.Cfg.Benchmarks) * (1 + len(res.Cfg.Sizes))
	if len(f2.Rows) != want {
		t.Errorf("figure 2 rows = %d, want %d", len(f2.Rows), want)
	}
	// Figure 7: one row per size plus two baselines.
	f7 := res.Figure7()
	if len(f7.Rows) != len(res.Cfg.Sizes)+2 {
		t.Errorf("figure 7 rows = %d", len(f7.Rows))
	}
}

func TestSkeletonFractionsTrackApplication(t *testing.T) {
	// Figure 2's property: each skeleton's compute/MPI split is close to
	// its application's (within 15 percentage points for non-tiny
	// skeletons).
	res := runReduced(t)
	for _, name := range res.Cfg.Benchmarks {
		bd := res.Benches[name]
		sd := bd.Skels[5]
		if diff := bd.MPIFrac - sd.MPIFrac; diff > 0.15 || diff < -0.15 {
			t.Errorf("%s: app MPI %.2f vs 5 s skeleton %.2f", name, bd.MPIFrac, sd.MPIFrac)
		}
	}
}

func TestSequentialAndParallelAgree(t *testing.T) {
	cfg := Config{Ranks: 4, Benchmarks: []string{"MG"}, Sizes: []float64{2}}
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, s := par.Benches["MG"], seq.Benches["MG"]
	if p.AppDedicated != s.AppDedicated {
		t.Errorf("dedicated: %v vs %v", p.AppDedicated, s.AppDedicated)
	}
	for _, sc := range par.Scenarios {
		if p.AppScenario[sc] != s.AppScenario[sc] {
			t.Errorf("%s: %v vs %v", sc, p.AppScenario[sc], s.AppScenario[sc])
		}
		if p.Skels[2].Scenario[sc] != s.Skels[2].Scenario[sc] {
			t.Errorf("skeleton %s: %v vs %v", sc, p.Skels[2].Scenario[sc], s.Skels[2].Scenario[sc])
		}
	}
}

func TestUnknownBenchmarkFails(t *testing.T) {
	_, err := Run(Config{Benchmarks: []string{"DT"}})
	if err == nil {
		t.Error("want error for unknown benchmark")
	}
}
