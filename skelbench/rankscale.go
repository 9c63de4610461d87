package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"perfskel"
	"perfskel/internal/cluster"
	"perfskel/internal/nas"
)

// rank-scale: the library path in one goroutine for CG, IS, LU and MG at
// class S on 16, 32 and 64 ranks — Env.Trace, Construct(WithK(8)),
// RunSkeleton dedicated and under "combined", PredictTime, and Env.Run
// under "combined" for the error. Host time per event grows with the
// process count and traces reach hundreds of thousands of events, a
// regime the 4-rank workloads never reach; campaign and service are
// bypassed.

const scaleK = 8

func (c scaleCell) id() string {
	return fmt.Sprintf("nas:%s:S|p=%d|combined|k=%d", c.app, c.nranks, scaleK)
}

// scaleResult is one rank-scale prediction.
type scaleResult struct {
	appDed, skelDed, skelComb, predicted, actual float64
	wall                                         float64 // host seconds the prediction took
	peakRSS                                      float64 // MB, the process's peak while predicting
}

func (s scaleResult) digest() string {
	return digest(s.appDed, s.skelDed, s.skelComb, s.predicted, s.actual)
}

func (s scaleResult) errorPct() float64 { return perfskel.PredictionErrorPct(s.predicted, s.actual) }

// scalePredict runs one cell through the perfskel facade.
func scalePredict(c scaleCell) (scaleResult, error) {
	var r scaleResult
	app, err := perfskel.NASApp(c.app, perfskel.ClassS)
	if err != nil {
		return r, err
	}
	ded := perfskel.NewTestbed(c.nranks, perfskel.Dedicated())
	tr, appDed, err := ded.Trace(c.nranks, app)
	if err != nil {
		return r, fmt.Errorf("trace %s: %w", c.id(), err)
	}
	skel, _, err := perfskel.Construct(tr, perfskel.WithK(scaleK))
	if err != nil {
		return r, fmt.Errorf("construct %s: %w", c.id(), err)
	}
	skelDed, err := ded.RunSkeleton(skel)
	if err != nil {
		return r, err
	}
	comb := perfskel.NewTestbed(c.nranks, perfskel.Combined())
	skelComb, err := comb.RunSkeleton(skel)
	if err != nil {
		return r, err
	}
	actual, err := comb.Run(c.nranks, app)
	if err != nil {
		return r, err
	}
	return scaleResult{
		appDed: appDed, skelDed: skelDed, skelComb: skelComb,
		predicted: perfskel.PredictTime(appDed, skelDed, skelComb), actual: actual,
	}, nil
}

// scalePass predicts every cell once, checking each against its digest.
func scalePass(t *tally, exp expected, cells []scaleCell) (map[string]scaleResult, float64, error) {
	out := map[string]scaleResult{}
	wall := 0.0
	for _, c := range cells {
		// Start every cell from a collected heap, so neither its time nor
		// the peak RSS depends on the garbage the seed's cell order left.
		if err := resetPeakRSS(); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		res, err := scalePredict(c)
		res.wall = time.Since(start).Seconds()
		wall += res.wall
		if res.peakRSS, err = peakRSSMB("self"); err != nil {
			return nil, 0, err
		}
		if err != nil {
			return nil, 0, err
		}
		exp.check(t, "rank-scale", c.id(), res.digest())
		out[c.id()] = res
	}
	return out, wall, nil
}

// scaleSetup is rank-scale's set-up: the time to a first prediction,
// i.e. resolving the four apps and predicting the smallest cell once.
func scaleSetup() (float64, error) {
	start := time.Now()
	for _, name := range []string{"CG", "IS", "LU", "MG"} {
		if _, err := nas.App(name, nas.ClassS); err != nil {
			return 0, err
		}
	}
	if _, err := scalePredict(scaleCell{"MG", 16}); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

func runRankScale(o options) (*run, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	r := newRun()
	cells := scaleCells(o.seed)
	var setupTimes []float64
	for i := 0; i < scaleSetups; i++ {
		d, err := scaleSetup()
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d)
	}
	if o.trace {
		return r, scaleTraced(o, r, exp, cells)
	}
	var res map[string]scaleResult
	var passTimes []float64
	count := 0
	err = rounds(o.seconds, func() (float64, error) {
		p, wall, err := scalePass(&r.tally, exp, cells)
		res = p
		passTimes = append(passTimes, wall)
		count += len(p)
		return wall, err
	})
	if err != nil {
		return nil, err
	}
	rss := 0.0
	total := 0.0
	for _, w := range passTimes {
		total += w
	}
	var errs []float64
	for _, v := range res {
		errs = append(errs, math.Abs(v.errorPct()))
		rss = max(rss, v.peakRSS)
	}
	r.set("setup_s", median(setupTimes), "s", len(setupTimes))
	r.set("predictions_per_s", float64(count)/total, "1/s", count)
	r.set("peak_rss_mb", rss, "MB", 1)
	r.set("prediction_error_pct", median(errs), "%", len(errs))
	r.info["pass_s"] = passTimes
	cellTimes := map[string]float64{}
	for id, v := range res {
		cellTimes[id] = v.wall
	}
	r.info["cell_s"] = cellTimes
	r.info["input"] = "CG, IS, LU, MG at class S on 16, 32, 64 ranks; K=8; scenario combined"
	return r, nil
}

// scaleTraced is rank-scale's -trace 1 run: one facade pass (the
// reference predictions and runtime counters), then the replay.
func scaleTraced(o options, r *run, exp expected, cells []scaleCell) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, _, err := scalePass(&r.tally, exp, cells)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	setRuntime(r, before, after)
	want := map[string]float64{}
	var groups []group
	for _, c := range cells {
		fn, err := nas.App(c.app, nas.ClassS)
		if err != nil {
			return err
		}
		want[c.id()] = res[c.id()].predicted
		groups = append(groups, group{
			id: "nas:" + c.app + ":S", fn: fn, nranks: c.nranks,
			cells: []cell{{id: c.id(), k: scaleK, sc: cluster.Combined(), measure: true}},
		})
	}
	return tracedRun(o, r, newTracer(), groups, want)
}
