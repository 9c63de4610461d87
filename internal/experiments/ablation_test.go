package experiments

import (
	"strconv"
	"testing"
)

func cell(t *testing.T, tb Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", tb.Title, row, col, tb.Rows[row][col])
	}
	return v
}

func TestAblationQHeuristic(t *testing.T) {
	tb, err := AblationQHeuristic(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The paper's Q=K/2 heuristic must compress the signature by orders of
	// magnitude relative to threshold 0...
	qLeaves := cell(t, tb, 0, 2)
	zeroLeaves := cell(t, tb, 1, 2)
	if zeroLeaves < 100*qLeaves {
		t.Errorf("Q heuristic leaves %v vs thr-0 leaves %v: expected >=100x compression", qLeaves, zeroLeaves)
	}
	// ...without giving up accuracy (both within a few percent).
	if e := cell(t, tb, 0, 4); e > 10 {
		t.Errorf("Q heuristic error %v%%", e)
	}
}

func TestAblationCrossTraffic(t *testing.T) {
	tb, err := AblationCrossTraffic(4)
	if err != nil {
		t.Fatal(err)
	}
	// Skeleton predictions stay accurate under stochastic background
	// traffic the skeleton was never measured against.
	for i := range tb.Rows {
		if e := cell(t, tb, i, 3); e > 10 {
			t.Errorf("row %d: error %v%% under cross traffic", i, e)
		}
	}
}

func TestAblationScaleModeWellFormed(t *testing.T) {
	tb, err := AblationScaleMode(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 || len(tb.Header) != 4 {
		t.Fatalf("table shape: %d rows, %d cols", len(tb.Rows), len(tb.Header))
	}
	// Under uniform latency-heavy sharing (net-all-links) the byte-scaled
	// 0.5 s skeleton's unscalable per-message latency produces a large
	// overprediction; time scaling reduces it.
	byteErr := cell(t, tb, 2, 2)
	timeErr := cell(t, tb, 3, 2)
	if timeErr >= byteErr {
		t.Errorf("net-all-links 0.5 s: time scaling %v%% not below byte scaling %v%%", timeErr, byteErr)
	}
}

func TestAblationEagerThreshold(t *testing.T) {
	tb, err := AblationEagerThreshold(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// At the realistic 64 KiB boundary prediction is accurate.
	if e := cell(t, tb, 1, 3); e > 10 {
		t.Errorf("64 KiB eager threshold error %v%%", e)
	}
}

// TestAblationsShareEngines pins the simulations AllAblations runs. The
// 64 KiB eager threshold is the default cost model, so the eager and
// cross-traffic ablations share one engine and simulate MG class B's
// dedicated run once: 39 simulations where one engine per ablation
// made 40.
func TestAblationsShareEngines(t *testing.T) {
	es := engines{}
	if _, err := allAblations(4, es); err != nil {
		t.Fatal(err)
	}
	if len(es) != 3 {
		t.Errorf("%d engines, want 3 (4 KiB, default, 1 MiB)", len(es))
	}
	var sims int64
	for _, eng := range es {
		sims += eng.Stats().Sims
	}
	if sims != 39 {
		t.Errorf("AllAblations ran %d simulations, want 39", sims)
	}
}
