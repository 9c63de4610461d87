package experiments

import (
	"fmt"

	"perfskel/internal/campaign"
	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/nas"
	"perfskel/internal/predict"
	"perfskel/internal/signature"
	"perfskel/internal/skeleton"
	"perfskel/internal/trace"
)

// Ablations exercise the design choices DESIGN.md calls out, each as a
// small focused experiment that returns a rendered table. Predictions
// come from a campaign engine, as the paper figures' do.

// engines hands out one campaign engine per effective MPI cost model.
// The ablations vary only the eager threshold, so it is the key, with
// the default threshold spelled as zero: ablations that run the same
// model share one engine and so simulate each dedicated run once.
type engines map[int64]*campaign.Engine

func (es engines) get(eager int64) *campaign.Engine {
	if eager == mpi.DefaultEagerThreshold {
		eager = 0
	}
	if es[eager] == nil {
		es[eager] = campaign.New(campaign.Config{MPI: mpi.Config{EagerThreshold: eager}})
	}
	return es[eager]
}

// classB returns the benchmark's class B campaign app and its dedicated
// execution time on eng.
func classB(eng *campaign.Engine, ranks int, bench string) (campaign.App, float64, error) {
	app, err := campaign.NASApp(bench, nas.ClassB)
	if err != nil {
		return campaign.App{}, 0, err
	}
	ded, err := eng.Run(campaign.Cell{App: app, NRanks: ranks, Scenario: cluster.Dedicated()})
	return app, ded.Time, err
}

// AblationScaleMode compares the paper's byte scaling against
// environment-aware time scaling (DESIGN.md choice 6) for small BT
// skeletons under the network-sharing scenarios, where the unscalable
// latency of byte-scaled messages hurts most.
func AblationScaleMode(ranks int) (Table, error) { return engines{}.scaleMode(ranks) }

func (es engines) scaleMode(ranks int) (Table, error) {
	eng := es.get(0)
	app, appDed, err := classB(eng, ranks, "BT")
	if err != nil {
		return Table{}, err
	}
	scs := []cluster.Scenario{cluster.NetOneLink(), cluster.NetAllLinks(ranks), cluster.Combined()}
	t := Table{
		Title:  "Ablation: communication scaling mode (BT class B, error %)",
		Note:   "byte scaling keeps unreducible latency; time scaling assumes the environment",
		Header: []string{"skeleton / mode", "net-one-link", "net-all-links", "combined"},
	}
	for _, size := range []float64{1, 0.5} {
		k, err := skeleton.KForTime(appDed, size)
		if err != nil {
			return Table{}, err
		}
		for _, mode := range []skeleton.ScaleMode{skeleton.ByteScale, skeleton.TimeScale} {
			name := "byte"
			if mode == skeleton.TimeScale {
				name = "time"
			}
			preds, err := eng.PredictAll(campaign.Grid{
				Apps: []campaign.App{app}, NRanks: ranks, Scenarios: scs,
				Ks: []int{k}, Mode: mode, MeasureApp: true,
			})
			if err != nil {
				return Table{}, err
			}
			row := []string{fmt.Sprintf("%g s / %s", size, name)}
			for _, p := range preds {
				row = append(row, errS(p.ErrorPct))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// AblationQHeuristic compares the paper's Q = K/2 compression target
// against fixed similarity thresholds (DESIGN.md choice 4), reporting
// signature size and prediction error for a 2-second CG skeleton. It
// runs outside the campaign engine, which builds skeletons only from
// its own Q = K/2 signatures.
func AblationQHeuristic(ranks int) (Table, error) {
	app, err := nas.App("CG", nas.ClassB)
	if err != nil {
		return Table{}, err
	}
	testbed := func(sc cluster.Scenario) *cluster.Cluster { return cluster.Build(cluster.Testbed(ranks), sc) }
	rec := trace.NewRecorder(ranks)
	appDed, err := mpi.Run(testbed(cluster.Dedicated()), ranks, mpi.Config{}, rec, app)
	if err != nil {
		return Table{}, err
	}
	tr := rec.Finish(appDed)
	sc := cluster.Combined()
	actual, err := mpi.Run(testbed(sc), ranks, mpi.Config{}, nil, app)
	if err != nil {
		return Table{}, err
	}
	k, err := skeleton.KForTime(appDed, 2)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Ablation: similarity threshold selection (CG class B, 2 s skeleton)",
		Note:   fmt.Sprintf("trace: %d events; K=%d; scenario: combined", tr.Len(), k),
		Header: []string{"strategy", "threshold", "signature leaves", "ratio", "error %"},
	}
	type strat struct {
		name string
		opts signature.Options
	}
	strategies := []strat{
		{"Q=K/2 (paper)", signature.Options{TargetRatio: float64(k) / 2}},
		{"fixed thr 0", signature.Options{}},
		{"fixed thr 0.05", signature.Options{InitialThreshold: 0.05}},
		{"fixed thr 0.20", signature.Options{InitialThreshold: 0.20}},
	}
	for _, st := range strategies {
		sig, err := signature.Build(tr, st.opts)
		if err != nil {
			return Table{}, err
		}
		prog, err := skeleton.Build(sig, k)
		if err != nil {
			return Table{}, err
		}
		ded, err := skeleton.Run(prog, testbed(cluster.Dedicated()), mpi.Config{}, nil)
		if err != nil {
			return Table{}, err
		}
		got, err := skeleton.Run(prog, testbed(sc), mpi.Config{}, nil)
		if err != nil {
			return Table{}, err
		}
		pred := predict.Predict(got, predict.Ratio(appDed, ded))
		t.Rows = append(t.Rows, []string{
			st.name,
			fmt.Sprintf("%.3f", sig.Threshold),
			fmt.Sprintf("%d", sig.Len()),
			fmt.Sprintf("%.0f", sig.Ratio),
			errS(predict.ErrorPct(pred, actual)),
		})
	}
	return t, nil
}

// AblationEagerThreshold varies the runtime's eager/rendezvous protocol
// boundary (DESIGN.md choice 3) and reports MG's prediction error under
// the combined scenario: the skeleton's scaled-down messages can cross the
// boundary its application's messages do not.
func AblationEagerThreshold(ranks int) (Table, error) { return engines{}.eagerThreshold(ranks) }

func (es engines) eagerThreshold(ranks int) (Table, error) {
	t := Table{
		Title:  "Ablation: eager/rendezvous threshold (MG class B, 1 s skeleton, combined scenario)",
		Header: []string{"eager threshold", "app actual (s)", "predicted (s)", "error %"},
	}
	for _, eager := range []int64{4 << 10, 64 << 10, 1 << 20} {
		eng := es.get(eager)
		app, appDed, err := classB(eng, ranks, "MG")
		if err != nil {
			return Table{}, err
		}
		k, err := skeleton.KForTime(appDed, 1)
		if err != nil {
			return Table{}, err
		}
		preds, err := eng.PredictAll(campaign.Grid{
			Apps: []campaign.App{app}, NRanks: ranks,
			Scenarios: []cluster.Scenario{cluster.Combined()}, Ks: []int{k}, MeasureApp: true,
		})
		if err != nil {
			return Table{}, err
		}
		p := preds[0]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d KiB", eager>>10),
			fmt.Sprintf("%.1f", p.AppActual),
			fmt.Sprintf("%.1f", p.Predicted),
			errS(p.ErrorPct),
		})
	}
	return t, nil
}

// AblationCrossTraffic probes prediction robustness under stochastic
// background traffic, a sharing mode outside the paper's deterministic
// scenarios.
func AblationCrossTraffic(ranks int) (Table, error) { return engines{}.crossTraffic(ranks) }

func (es engines) crossTraffic(ranks int) (Table, error) {
	eng := es.get(0)
	app, appDed, err := classB(eng, ranks, "MG")
	if err != nil {
		return Table{}, err
	}
	k, err := skeleton.KForTime(appDed, 2)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Extension: prediction under stochastic cross-traffic (MG class B, 2 s skeleton)",
		Note:   "background flows between random node pairs; load = MeanBytes/MeanGap per generator",
		Header: []string{"offered load", "app actual (s)", "predicted (s)", "error %"},
	}
	loads := []struct {
		name  string
		gap   float64
		bytes float64
	}{
		{"~10% of link", 0.010, 1.25e5},
		{"~40% of link", 0.010, 5.0e5},
		{"~70% of link", 0.008, 7.0e5},
	}
	var scs []cluster.Scenario
	for _, load := range loads {
		scs = append(scs, cluster.WithCrossTraffic(cluster.Dedicated(), cluster.CrossTraffic{
			MeanGap: load.gap, MeanBytes: load.bytes, Seed: 11,
		}))
	}
	preds, err := eng.PredictAll(campaign.Grid{
		Apps: []campaign.App{app}, NRanks: ranks, Scenarios: scs, Ks: []int{k}, MeasureApp: true,
	})
	if err != nil {
		return Table{}, err
	}
	for i, p := range preds {
		t.Rows = append(t.Rows, []string{
			loads[i].name,
			fmt.Sprintf("%.1f", p.AppActual),
			fmt.Sprintf("%.1f", p.Predicted),
			errS(p.ErrorPct),
		})
	}
	return t, nil
}

// AllAblations runs every ablation at the paper's scale.
func AllAblations(ranks int) ([]Table, error) { return allAblations(ranks, engines{}) }

// allAblations is AllAblations with the ablations' engines shared
// through es.
func allAblations(ranks int, es engines) ([]Table, error) {
	if ranks == 0 {
		ranks = 4
	}
	var out []Table
	for _, f := range []func(int) (Table, error){
		es.scaleMode, AblationQHeuristic, es.eagerThreshold, es.crossTraffic,
	} {
		t, err := f(ranks)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
