package campaign

import (
	"context"
	"fmt"
	"sync"

	"perfskel/internal/cluster"
	"perfskel/internal/predict"
	"perfskel/internal/skeleton"
)

// Grid is a declarative sweep: the cross product Apps × Ks × Scenarios at
// one rank count. Zero fields take the paper's defaults (4 ranks, the
// testbed topology, the five sharing scenarios, K=8).
type Grid struct {
	Apps   []App
	NRanks int
	// Topo is the cluster topology; zero means the n-node testbed.
	Topo cluster.Topology
	// Scenarios are the target scenarios predictions are made for; nil
	// means the paper's five sharing scenarios.
	Scenarios []cluster.Scenario
	// Ks are the skeleton scaling factors; empty means {8}.
	Ks []int
	// Mode is the communication scale mode for every cell.
	Mode skeleton.ScaleMode
	// MeasureApp additionally runs each application under each target
	// scenario so every prediction carries its actual time and error.
	MeasureApp bool
}

func (g Grid) withDefaults() Grid {
	if g.NRanks == 0 {
		g.NRanks = 4
	}
	if len(g.Topo.Nodes) == 0 {
		g.Topo = cluster.Testbed(g.NRanks)
	}
	if g.Scenarios == nil {
		g.Scenarios = cluster.PaperScenarios(g.NRanks)
	}
	if len(g.Ks) == 0 {
		g.Ks = []int{8}
	}
	return g
}

// Cells expands the grid into its prediction cells in deterministic
// order: apps outermost, then Ks, then scenarios.
func (g Grid) Cells() []Cell {
	g = g.withDefaults()
	var cells []Cell
	for _, app := range g.Apps {
		for _, k := range g.Ks {
			for _, sc := range g.Scenarios {
				cells = append(cells, Cell{
					App: app, NRanks: g.NRanks, Topo: g.Topo,
					Scenario: sc, K: k, Mode: g.Mode,
				})
			}
		}
	}
	return cells
}

// Prediction is one grid cell's outcome: the skeleton-probe prediction of
// the application's execution time under the cell's scenario (paper
// section 4.2), plus the measured actual when the grid asked for it.
type Prediction struct {
	App           string  `json:"app"`
	NRanks        int     `json:"nranks"`
	K             int     `json:"k"`
	Scenario      string  `json:"scenario"`
	AppDedicated  float64 `json:"app_dedicated_s"`
	SkelDedicated float64 `json:"skel_dedicated_s"`
	SkelScenario  float64 `json:"skel_scenario_s"`
	Predicted     float64 `json:"predicted_s"`
	// Measured marks that the application was actually run under the
	// scenario too, filling AppActual and ErrorPct.
	Measured  bool    `json:"measured,omitempty"`
	AppActual float64 `json:"app_actual_s,omitempty"`
	ErrorPct  float64 `json:"error_pct,omitempty"`
}

// Predict runs one cell's full prediction: dedicated application
// baseline (AppDedicatedTime), dedicated skeleton run (the scaling
// ratio), and the skeleton probe under the cell's scenario. All
// sub-runs go through the cache, so a campaign's shared baselines are
// simulated once.
func (e *Engine) Predict(c Cell) (Prediction, error) {
	return e.predict(context.Background(), c, false)
}

// PredictContext is Predict with a cancellation context: every sub-run
// checks it while queueing for a worker slot and at simulation-event
// granularity while running (see RunContext).
func (e *Engine) PredictContext(ctx context.Context, c Cell) (Prediction, error) {
	return e.predict(ctx, c, false)
}

func (e *Engine) predict(ctx context.Context, c Cell, measure bool) (Prediction, error) {
	c, err := e.norm(c)
	if err != nil {
		return Prediction{}, err
	}
	if c.K < 1 {
		return Prediction{}, fmt.Errorf("campaign: Predict needs K >= 1, got %d: %w", c.K, skeleton.ErrBadK)
	}
	appDed, err := e.AppDedicatedTime(ctx, c)
	if err != nil {
		return Prediction{}, err
	}
	skelDedCell := c
	skelDedCell.Scenario = cluster.Dedicated()
	skelDed, err := e.RunContext(ctx, skelDedCell)
	if err != nil {
		return Prediction{}, err
	}
	skelScen, err := e.RunContext(ctx, c)
	if err != nil {
		return Prediction{}, err
	}
	p := Prediction{
		App: c.App.ID, NRanks: c.NRanks, K: c.K, Scenario: c.Scenario.Name,
		AppDedicated:  appDed,
		SkelDedicated: skelDed.Time,
		SkelScenario:  skelScen.Time,
		Predicted:     predict.Predict(skelScen.Time, predict.Ratio(appDed, skelDed.Time)),
	}
	if measure {
		actCell := c
		actCell.K = 0
		act, err := e.RunContext(ctx, actCell)
		if err != nil {
			return Prediction{}, err
		}
		p.Measured = true
		p.AppActual = act.Time
		p.ErrorPct = predict.ErrorPct(p.Predicted, act.Time)
	}
	return p, nil
}

// AppDedicatedTime returns the dedicated application baseline a
// prediction for cell c scales by: the application's simulated run
// under the dedicated scenario when it has a program body (App.Fn),
// the static signature's modeled AppTime otherwise. c's K and Scenario
// are ignored.
func (e *Engine) AppDedicatedTime(ctx context.Context, c Cell) (float64, error) {
	if c.App.Fn == nil && c.App.Static != nil && c.App.Static.Sig != nil {
		return c.App.Static.Sig.AppTime, nil
	}
	c.K = 0
	c.Scenario = cluster.Dedicated()
	r, err := e.RunContext(ctx, c)
	if err != nil {
		return 0, err
	}
	return r.Time, nil
}

// PredictAll runs every cell of the grid through the worker pool and
// returns the predictions in the grid's deterministic expansion order
// (apps × Ks × scenarios). Results are identical — to the byte, once
// serialized — for any Workers setting, because each cell's value is a
// pure function of its content-addressed key.
func (e *Engine) PredictAll(g Grid) ([]Prediction, error) {
	return e.PredictAllContext(context.Background(), g)
}

// PredictAllContext is PredictAll with a cancellation context: once ctx
// is done, queued cells fail fast and in-flight simulations abort at
// their next event checkpoint, so an abandoned sweep releases its
// workers almost immediately.
func (e *Engine) PredictAllContext(ctx context.Context, g Grid) ([]Prediction, error) {
	cells := g.Cells()
	g = g.withDefaults()
	preds := make([]Prediction, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		//skelvet:ignore nondeterminism bounded worker pool; each goroutine writes only its own index and Wait joins them all before any read
		go func(i int) {
			defer wg.Done()
			preds[i], errs[i] = e.predict(ctx, cells[i], g.MeasureApp)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return preds, nil
}
