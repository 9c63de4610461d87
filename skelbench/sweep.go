package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"perfskel/internal/analysis"
	"perfskel/internal/analysis/commgraph"
	"perfskel/internal/analysis/staticsig"
	"perfskel/internal/campaign"
	"perfskel/internal/cluster"
	"perfskel/internal/nas"
	"perfskel/internal/signature"
)

// campaign-sweep: the paper's evaluation grid through campaign.PredictAll
// on a fresh engine with two workers and no disk cache — the six NAS
// benchmarks at class B on 4 ranks under the five sharing scenarios at
// K=8, each next to its statically synthesized twin, with every
// application also measured under every scenario.

const (
	sweepRanks = 4
	sweepClass = nas.ClassB
	sweepK     = 8
)

// Set-ups per run; setup_s is their median. The cheaper a set-up, the
// more of them a run takes, so that the median is steady.
const (
	sweepSetups = 5  // campaign-sweep: ~0.8 s each
	scaleSetups = 9  // rank-scale: ~50 ms each
	serveBoots  = 15 // serve-mix: ~5 ms each
)

// sweepInput is what campaign-sweep's set-up produces.
type sweepInput struct {
	apps []campaign.App // traced and static twin per benchmark, seed order
	ids  []string       // prediction ids in grid expansion order
	// groups is the same grid as replay groups.
	groups []group
}

// sweepSetup constructs an engine and loads the static twins: type-check
// the NAS sources, extract each benchmark's parametric signature and
// instantiate it at class B on 4 ranks. tr, when non-nil, gets a span
// around each layer call.
func sweepSetup(seed int64, tr *tracer) (*sweepInput, *campaign.Engine, error) {
	eng := newSweepEngine()
	var pkg *analysis.Package
	s := tr.begin(-1, "analysis.Load", "perfskel/internal/nas")
	loader, err := analysis.NewLoader(".")
	if err == nil {
		pkg, err = loader.Load("perfskel/internal/nas")
	}
	tr.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("load NAS sources: %w", err)
	}
	src := commgraph.Source{Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info}
	in := &sweepInput{}
	scenarios := cluster.PaperScenarios(sweepRanks)
	for _, name := range sweepApps(seed) {
		traced, err := campaign.NASApp(name, sweepClass)
		if err != nil {
			return nil, nil, err
		}
		s := tr.begin(-1, "staticsig.Extract", name)
		par, err := staticsig.Extract(src, name)
		tr.end(s)
		if err != nil {
			return nil, nil, fmt.Errorf("extract %s: %w", name, err)
		}
		s = tr.begin(-1, "staticsig.Instantiate", name)
		inst, err := par.Instantiate(sweepRanks, string(sweepClass))
		tr.end(s)
		if err != nil {
			return nil, nil, fmt.Errorf("instantiate %s: %w", name, err)
		}
		twin := campaign.StaticApp(&campaign.StaticSig{Key: inst.Key, Sig: inst.Sig})
		twin.Fn = traced.Fn
		for _, a := range []struct {
			kind string
			app  campaign.App
			sig  *signature.Signature
		}{{"nas", traced, nil}, {"static", twin, inst.Sig}} {
			in.apps = append(in.apps, a.app)
			g := group{id: a.kind + ":" + name, fn: a.app.Fn, nranks: sweepRanks, static: a.sig}
			for _, sc := range scenarios {
				id := fmt.Sprintf("%s:%s|%s|k=%d", a.kind, name, sc.Name, sweepK)
				in.ids = append(in.ids, id)
				g.cells = append(g.cells, cell{id: id, k: sweepK, sc: sc, measure: true})
			}
			in.groups = append(in.groups, g)
		}
	}
	return in, eng, nil
}

// newSweepEngine returns a fresh engine: two workers, no disk cache.
func newSweepEngine() *campaign.Engine { return campaign.New(campaign.Config{Workers: workers}) }

func (in *sweepInput) grid() campaign.Grid {
	return campaign.Grid{Apps: in.apps, NRanks: sweepRanks, Ks: []int{sweepK}, MeasureApp: true}
}

// sweepGrid runs one grid on eng and checks every prediction against the
// committed digests. It returns the predictions by id and the wall time.
func sweepGrid(t *tally, exp expected, in *sweepInput, eng *campaign.Engine) (map[string]campaign.Prediction, float64, error) {
	start := time.Now()
	preds, err := eng.PredictAll(in.grid())
	wall := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, err
	}
	if len(preds) != len(in.ids) {
		return nil, 0, fmt.Errorf("grid returned %d predictions for %d cells", len(preds), len(in.ids))
	}
	out := map[string]campaign.Prediction{}
	for i, p := range preds {
		out[in.ids[i]] = p
		exp.check(t, "campaign-sweep", in.ids[i], predictionDigest(p))
	}
	return out, wall, nil
}

// predictionDigest hashes a prediction's values, leaving out the app
// identity: a static twin's identity carries a hash of the NAS source,
// which a change may alter without changing any prediction.
func predictionDigest(p campaign.Prediction) string {
	return digest(p.NRanks, p.K, p.Scenario, p.AppDedicated, p.SkelDedicated, p.SkelScenario,
		p.Predicted, p.Measured, p.AppActual, p.ErrorPct)
}

// errorPcts returns the median |error| of the measured predictions whose
// id starts with kind ("nas" or "static").
func errorPcts(preds map[string]campaign.Prediction, kind string) (float64, int) {
	var errs []float64
	for id, p := range preds {
		if p.Measured && len(id) > len(kind) && id[:len(kind)+1] == kind+":" {
			errs = append(errs, math.Abs(p.ErrorPct))
		}
	}
	return median(errs), len(errs)
}

func runSweep(o options) (*run, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	r := newRun()
	if o.trace {
		return r, sweepTraced(o, r, exp)
	}
	var setupTimes []float64
	var in *sweepInput
	for i := 0; i < sweepSetups; i++ {
		start := time.Now()
		in, _, err = sweepSetup(o.seed, nil)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	// The first grid in a process runs measurably slower (heap growth,
	// first-touch page faults), so one untimed grid warms it up.
	if _, _, err := sweepGrid(&r.tally, exp, in, newSweepEngine()); err != nil {
		return nil, err
	}
	var preds map[string]campaign.Prediction
	var gridTimes []float64
	count := 0
	var rss []float64
	err = rounds(o.seconds, func() (float64, error) {
		if err := resetPeakRSS(); err != nil {
			return 0, err
		}
		p, wall, err := sweepGrid(&r.tally, exp, in, newSweepEngine())
		if err != nil {
			return 0, err
		}
		m, err := peakRSSMB("self")
		preds = p
		gridTimes = append(gridTimes, wall)
		rss = append(rss, m)
		count += len(p)
		return wall, err
	})
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, w := range gridTimes {
		total += w
	}
	tracedErr, nt := errorPcts(preds, "nas")
	staticErr, ns := errorPcts(preds, "static")
	r.set("setup_s", median(setupTimes), "s", len(setupTimes))
	r.set("predictions_per_s", float64(count)/total, "1/s", count)
	r.set("peak_rss_mb", median(rss), "MB", len(rss))
	r.set("prediction_error_pct", tracedErr, "%", nt)
	r.set("static_error_pct", staticErr, "%", ns)
	r.info["grid_cells"] = len(in.ids)
	r.info["grid_s"] = gridTimes
	r.info["input"] = fmt.Sprintf("%d NAS apps + static twins, class %s, %d ranks, 5 scenarios, K=%d, measured", len(in.ids)/10, sweepClass, sweepRanks, sweepK)
	return r, nil
}

// sweepTraced is campaign-sweep's -trace 1 run: a traced set-up, one
// reference grid (campaign and runtime counters), then the replay.
func sweepTraced(o options, r *run, exp expected) error {
	tr := newTracer()
	in, eng, err := sweepSetup(o.seed, tr)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	preds, _, err := sweepGrid(&r.tally, exp, in, eng)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	setRuntime(r, before, after)
	st := eng.Stats()
	r.set("campaign.sims", float64(st.Sims), "count", 1)
	r.set("campaign.hits", float64(st.Hits), "count", 1)
	r.set("campaign.misses", float64(st.Misses), "count", 1)
	r.set("campaign.hit_ratio", float64(st.Hits+st.DiskHits)/float64(st.Hits+st.DiskHits+st.Misses), "ratio", 1)
	r.set("analysis.load_s", tr.total("analysis.Load"), "s", 1)
	r.set("staticsig.extract_s", tr.total("staticsig.Extract"), "s", len(in.groups)/2)
	r.set("staticsig.instantiate_s", tr.total("staticsig.Instantiate"), "s", len(in.groups)/2)
	staticErr, ns := errorPcts(preds, "static")
	r.set("staticsig.error_pct", staticErr, "%", ns)
	want := map[string]float64{}
	for id, p := range preds {
		want[id] = p.Predicted
	}
	return tracedRun(o, r, tr, in.groups, want)
}

// setRuntime reports the bench process's garbage collections and
// allocated megabytes between two MemStats snapshots.
func setRuntime(r *run, before, after runtime.MemStats) {
	r.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC), "count", 1)
	r.set("runtime.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), "MB", 1)
}
