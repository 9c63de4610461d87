// Package experiments reproduces the paper's evaluation (section 4): it
// traces each NAS benchmark on the dedicated simulated testbed, constructs
// performance skeletons of 10/5/2/1/0.5-second intended execution times,
// executes benchmarks, skeletons and the Class S baselines under the five
// resource-sharing scenarios, and renders Figures 2 through 7.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"perfskel/internal/campaign"
	"perfskel/internal/cluster"
	"perfskel/internal/nas"
	"perfskel/internal/predict"
	"perfskel/internal/skeleton"
)

// Config selects what to run. The zero value reproduces the paper's setup:
// all six benchmarks, 4 ranks on 4 dual-CPU nodes, skeleton sizes 10, 5,
// 2, 1 and 0.5 seconds, the five sharing scenarios.
type Config struct {
	Ranks      int
	Benchmarks []string
	Sizes      []float64
	Workers    int       // campaign worker-pool size; 0 means GOMAXPROCS
	CacheDir   string    // optional on-disk campaign cache, reused across runs
	Progress   io.Writer // optional progress log
}

func (c Config) withDefaults() Config {
	if c.Ranks == 0 {
		c.Ranks = 4
	}
	if c.Benchmarks == nil {
		c.Benchmarks = nas.Benchmarks()
	}
	if c.Sizes == nil {
		c.Sizes = []float64{10, 5, 2, 1, 0.5}
	}
	return c
}

// SkelData holds one skeleton's construction parameters and measurements.
type SkelData struct {
	Size         float64 // intended execution time, seconds
	K            int     // scaling factor
	Good         bool    // framework's section-3.4 goodness flag
	SigRatio     float64 // achieved signature compression ratio
	SigThreshold float64 // similarity threshold used
	SigTargetMet bool    // whether Q = K/2 was reached
	Dedicated    float64 // dedicated execution time
	ComputeFrac  float64 // Figure 2 breakdown
	MPIFrac      float64
	Scenario     map[string]float64 // scenario name -> execution time
}

// BenchData holds one benchmark's measurements.
type BenchData struct {
	Name          string
	AppDedicated  float64
	ComputeFrac   float64
	MPIFrac       float64
	TraceEvents   int
	MinGood       float64 // Figure 4: smallest good skeleton time
	AppScenario   map[string]float64
	Skels         map[float64]*SkelData
	ClassSDed     float64
	ClassSScen    map[string]float64
	ClassSMPIFrac float64
}

// Results holds the full evaluation dataset.
type Results struct {
	Cfg       Config
	Scenarios []string // the five sharing scenario names, paper order
	Benches   map[string]*BenchData
}

// scenarios returns the paper's five sharing scenarios for n nodes.
func scenarios(n int) []cluster.Scenario { return cluster.PaperScenarios(n) }

// Run executes the full evaluation and returns the dataset behind every
// figure. All simulations go through one campaign engine, so shared cells
// (the dedicated runs every prediction divides by) are executed once,
// concurrency is bounded by Config.Workers, and a Config.CacheDir
// carries results across invocations.
func Run(cfg Config) (*Results, error) {
	cfg = cfg.withDefaults()
	scs := scenarios(cfg.Ranks)
	res := &Results{Cfg: cfg, Benches: make(map[string]*BenchData)}
	for _, sc := range scs {
		res.Scenarios = append(res.Scenarios, sc.Name)
	}

	eng := campaign.New(campaign.Config{Workers: cfg.Workers, CacheDir: cfg.CacheDir})

	progress := func(format string, args ...interface{}) {}
	var progressMu sync.Mutex
	if cfg.Progress != nil {
		progress = func(format string, args ...interface{}) {
			progressMu.Lock()
			defer progressMu.Unlock()
			fmt.Fprintf(cfg.Progress, format+"\n", args...)
		}
	}

	type outcome struct {
		name string
		bd   *BenchData
		err  error
	}
	results := make(chan outcome, len(cfg.Benchmarks))
	for _, name := range cfg.Benchmarks {
		//skelvet:ignore nondeterminism per-benchmark worker pool; outcomes are keyed by name and the error below is chosen in request order
		go func(name string) {
			bd, err := runBenchmark(cfg, eng, scs, name, progress)
			results <- outcome{name, bd, err}
		}(name)
	}
	errs := make(map[string]error, len(cfg.Benchmarks))
	for range cfg.Benchmarks {
		o := <-results
		errs[o.name] = o.err
		if o.bd != nil {
			res.Benches[o.bd.Name] = o.bd
		}
	}
	// Report the first failing benchmark in request order, not in
	// completion order, so the returned error is deterministic.
	for _, name := range cfg.Benchmarks {
		if err := errs[name]; err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runBenchmark performs the whole pipeline for one benchmark on the
// shared campaign engine.
func runBenchmark(cfg Config, eng *campaign.Engine, scs []cluster.Scenario, name string, progress func(string, ...interface{})) (*BenchData, error) {
	bd := &BenchData{
		Name:        name,
		AppScenario: make(map[string]float64),
		Skels:       make(map[float64]*SkelData),
		ClassSScen:  make(map[string]float64),
	}

	appB, err := campaign.NASApp(name, nas.ClassB)
	if err != nil {
		return nil, err
	}
	appS, err := campaign.NASApp(name, nas.ClassS)
	if err != nil {
		return nil, err
	}
	cell := func(app campaign.App, sc cluster.Scenario, k int) campaign.Cell {
		return campaign.Cell{App: app, NRanks: cfg.Ranks, Scenario: sc, K: k}
	}

	// 1. Dedicated run of the class B application (the trace source every
	// skeleton below is constructed from).
	ded, err := eng.Run(cell(appB, cluster.Dedicated(), 0))
	if err != nil {
		return nil, fmt.Errorf("%s dedicated: %w", name, err)
	}
	bd.AppDedicated = ded.Time
	st := ded.Stats
	bd.ComputeFrac, bd.MPIFrac = st.ComputeFrac, st.MPIFrac
	bd.TraceEvents = st.Events
	progress("%s: class B dedicated %.1f s (%d events, %.1f%% MPI)", name, ded.Time, st.Events, 100*st.MPIFrac)

	// 2. Class B under each sharing scenario.
	for _, sc := range scs {
		r, err := eng.Run(cell(appB, sc, 0))
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", name, sc.Name, err)
		}
		bd.AppScenario[sc.Name] = r.Time
		progress("%s: class B %s %.1f s (slowdown %.2fx)", name, sc.Name, r.Time, r.Time/ded.Time)
	}

	// 3. Class S baseline runs.
	sDed, err := eng.Run(cell(appS, cluster.Dedicated(), 0))
	if err != nil {
		return nil, fmt.Errorf("%s class S: %w", name, err)
	}
	bd.ClassSDed = sDed.Time
	bd.ClassSMPIFrac = sDed.Stats.MPIFrac
	for _, sc := range scs {
		r, err := eng.Run(cell(appS, sc, 0))
		if err != nil {
			return nil, fmt.Errorf("%s class S %s: %w", name, sc.Name, err)
		}
		bd.ClassSScen[sc.Name] = r.Time
	}

	// 4. Skeletons of each intended size.
	sizes := append([]float64(nil), cfg.Sizes...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sizes))) // largest (smallest K) first
	for _, size := range sizes {
		k, err := skeleton.KForTime(bd.AppDedicated, size)
		if err != nil {
			return nil, fmt.Errorf("%s skeleton %.1fs: %w", name, size, err)
		}
		prog, sig, err := eng.Construct(cell(appB, cluster.Dedicated(), k))
		if err != nil {
			return nil, fmt.Errorf("%s skeleton (K=%d): %w", name, k, err)
		}
		sd := &SkelData{
			Size: size, K: k,
			Good:         prog.Good,
			SigRatio:     sig.Ratio,
			SigThreshold: sig.Threshold,
			SigTargetMet: sig.TargetMet,
			Scenario:     make(map[string]float64),
		}
		// The most-compressed signature gives the best view of the cyclic
		// structure; use it for the benchmark's smallest-good estimate.
		if mg := skeleton.MinGoodTime(sig, skeleton.DefaultCoverage); bd.MinGood == 0 || size == sizes[len(sizes)-1] {
			bd.MinGood = mg
		}
		// Dedicated run for the Figure 2 breakdown and the measured
		// scaling ratio.
		dedSkel, err := eng.Run(cell(appB, cluster.Dedicated(), k))
		if err != nil {
			return nil, fmt.Errorf("%s skeleton %.1fs dedicated: %w", name, size, err)
		}
		sd.Dedicated = dedSkel.Time
		sd.ComputeFrac, sd.MPIFrac = dedSkel.Stats.ComputeFrac, dedSkel.Stats.MPIFrac
		for _, sc := range scs {
			r, err := eng.Run(cell(appB, sc, k))
			if err != nil {
				return nil, fmt.Errorf("%s skeleton %.1fs %s: %w", name, size, sc.Name, err)
			}
			sd.Scenario[sc.Name] = r.Time
		}
		bd.Skels[size] = sd
		progress("%s: skeleton %.1fs K=%d ran %.2fs dedicated (good=%v, thr=%.3f)",
			name, size, k, dedSkel.Time, sd.Good, sig.Threshold)
	}
	return bd, nil
}

// Error returns the skeleton prediction error in percent for one
// (benchmark, skeleton size, scenario) case.
func (r *Results) Error(bench string, size float64, scen string) float64 {
	bd := r.Benches[bench]
	sd := bd.Skels[size]
	ratio := predict.Ratio(bd.AppDedicated, sd.Dedicated)
	pred := predict.Predict(sd.Scenario[scen], ratio)
	return predict.ErrorPct(pred, bd.AppScenario[scen])
}

// AvgErrorOverScenarios averages a skeleton's prediction error across the
// five sharing scenarios (Figures 3 and 5).
func (r *Results) AvgErrorOverScenarios(bench string, size float64) float64 {
	sum := 0.0
	for _, sc := range r.Scenarios {
		sum += r.Error(bench, size, sc)
	}
	return sum / float64(len(r.Scenarios))
}
