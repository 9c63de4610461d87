package experiments

import (
	"fmt"

	"perfskel/internal/campaign"
	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/nas"
	"perfskel/internal/predict"
	"perfskel/internal/skeleton"
)

// ExtensionProcScaling evaluates the paper's section-5 extension of
// scaling predictions across processor counts: skeletons are built from
// traces at `from` ranks, rescaled to `to` ranks (weak scaling), and used
// to predict the benchmarks' execution times at the larger size — both
// dedicated and under CPU sharing — without ever tracing at that size.
// Rank-dependent programs (LU's wavefront corners) cannot be rescaled and
// are reported as such.
func ExtensionProcScaling(from, to int) (Table, error) {
	t := Table{
		Title: fmt.Sprintf("Extension: predictions across processor counts (%d-rank skeletons -> %d ranks, class A)", from, to),
		Note:  "weak scaling; 'n/a' marks rank-dependent programs that refuse to rescale",
		Header: []string{"benchmark", fmt.Sprintf("actual ded %dr (s)", to), "predicted (s)", "error %",
			"actual shared (s)", "predicted (s)", "error %"},
	}
	eng := campaign.New(campaign.Config{})
	sc := cluster.CPUOneNode()
	for _, name := range append(nas.Benchmarks(), "FT", "EP") {
		app, err := campaign.NASApp(name, nas.ClassA)
		if err != nil {
			return Table{}, err
		}
		// Trace and build at the small size; the engine keeps the dedicated
		// run's trace for Construct.
		small := campaign.Cell{App: app, NRanks: from, Scenario: cluster.Dedicated()}
		appDed, err := eng.Run(small)
		if err != nil {
			return Table{}, fmt.Errorf("%s trace: %w", name, err)
		}
		k, err := skeleton.KForTime(appDed.Time, 2)
		if err != nil {
			return Table{}, fmt.Errorf("%s skeleton K: %w", name, err)
		}
		small.K = max(k, 2)
		prog, _, err := eng.Construct(small)
		if err != nil {
			return Table{}, fmt.Errorf("%s skeleton build: %w", name, err)
		}
		skelDed, err := eng.Run(small)
		if err != nil {
			return Table{}, fmt.Errorf("%s skeleton at %d ranks: %w", name, from, err)
		}
		ratio := predict.Ratio(appDed.Time, skelDed.Time)

		big, err := skeleton.Rescale(prog, to)
		if err != nil {
			t.Rows = append(t.Rows, []string{name, "-", "n/a", "-", "-", "n/a", "-"})
			continue
		}
		// Ground truth at the large size.
		dedActual, err := eng.Run(campaign.Cell{App: app, NRanks: to, Scenario: cluster.Dedicated()})
		if err != nil {
			return Table{}, fmt.Errorf("%s app at %d ranks: %w", name, to, err)
		}
		shActual, err := eng.Run(campaign.Cell{App: app, NRanks: to, Scenario: sc})
		if err != nil {
			return Table{}, fmt.Errorf("%s app shared at %d ranks: %w", name, to, err)
		}
		// Predictions from the rescaled skeleton.
		dedSkel, err := skeleton.Run(big, cluster.Build(cluster.Testbed(to), cluster.Dedicated()), mpi.Config{}, nil)
		if err != nil {
			return Table{}, fmt.Errorf("%s rescaled skeleton: %w", name, err)
		}
		shSkel, err := skeleton.Run(big, cluster.Build(cluster.Testbed(to), sc), mpi.Config{}, nil)
		if err != nil {
			return Table{}, fmt.Errorf("%s rescaled skeleton shared: %w", name, err)
		}
		dedPred := predict.Predict(dedSkel, ratio)
		shPred := predict.Predict(shSkel, ratio)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.1f", dedActual.Time), fmt.Sprintf("%.1f", dedPred),
			errS(predict.ErrorPct(dedPred, dedActual.Time)),
			fmt.Sprintf("%.1f", shActual.Time), fmt.Sprintf("%.1f", shPred),
			errS(predict.ErrorPct(shPred, shActual.Time)),
		})
	}
	return t, nil
}
