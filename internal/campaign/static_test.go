package campaign

import (
	"reflect"
	"strings"
	"testing"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/predict"
	"perfskel/internal/signature"
	"perfskel/internal/trace"
)

// staticTestSig builds a signature for testApp outside the engine, the
// way internal/analysis/staticsig would synthesize one from source, and
// wraps it under a static content key. The engine must treat it as
// given: skeleton cells built from it may simulate the skeleton but
// never the application.
func staticTestSig(t *testing.T) *StaticSig {
	t.Helper()
	rec := trace.NewRecorder(2)
	dur, err := mpi.Run(cluster.Build(cluster.Testbed(2), cluster.Dedicated()), 2, mpi.Config{}, rec, testApp().Fn)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	sig, err := signature.Build(rec.Finish(dur), signature.Options{TargetRatio: 8})
	if err != nil {
		t.Fatalf("signature: %v", err)
	}
	return &StaticSig{Key: "static|app=iter-v1|class=S|p=2|src=0123456789abcdef", Sig: sig}
}

// TestStaticCellBuildsWithoutTrace pins the static path's defining
// property: a skeleton cell of a static app executes exactly one
// simulation (the skeleton run itself) — no application trace run.
func TestStaticCellBuildsWithoutTrace(t *testing.T) {
	e := New(Config{Workers: 1})
	c := Cell{
		App:      StaticApp(staticTestSig(t)),
		NRanks:   2,
		Scenario: cluster.Dedicated(),
		K:        4,
	}
	res, err := e.Run(c)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Time <= 0 {
		t.Fatalf("skeleton run time = %g, want > 0", res.Time)
	}
	if got := e.Stats().Sims; got != 1 {
		t.Errorf("static skeleton cell executed %d simulations, want exactly 1 (the skeleton run)", got)
	}

	prog, sig, err := e.Construct(c)
	if err != nil {
		t.Fatalf("Construct: %v", err)
	}
	if prog == nil || sig == nil {
		t.Fatalf("Construct returned nil program or signature")
	}
	if sig != c.App.Static.Sig {
		t.Errorf("Construct should return the synthesized signature unchanged")
	}
	if got := e.Stats().Sims; got != 1 {
		t.Errorf("Construct after Run executed %d simulations, want still 1", got)
	}
}

// TestStaticCellValidation pins the static cells' contract errors.
func TestStaticCellValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	s := staticTestSig(t)

	// A static app has no program body, so an application cell (K == 0)
	// has nothing to simulate.
	if _, err := e.Run(Cell{App: StaticApp(s), NRanks: 2, Scenario: cluster.Dedicated()}); err == nil {
		t.Errorf("K == 0 cell of a static app should be rejected")
	}

	// A static signature without a content key cannot be cached safely.
	bad := App{ID: "static:nokey", Static: &StaticSig{Sig: s.Sig}}
	if _, err := e.Run(Cell{App: bad, NRanks: 2, Scenario: cluster.Dedicated(), K: 2}); err == nil {
		t.Errorf("static app without a content key should be rejected")
	}

	// Attaching a program body makes K == 0 cells legal again.
	mixed := StaticApp(s)
	mixed.Fn = testApp().Fn
	if _, err := e.Run(Cell{App: mixed, NRanks: 2, Scenario: cluster.Dedicated()}); err != nil {
		t.Errorf("static app with attached Fn should run as an app cell: %v", err)
	}
}

// TestStaticAppRunKeepsNoTrace: a static app with a program body
// records its dedicated run statistics-only, with the same statistics
// as the traced app's dedicated run, which alone keeps a ladder of its
// trace.
func TestStaticAppRunKeepsNoTrace(t *testing.T) {
	e := New(Config{Workers: 1})
	static := StaticApp(staticTestSig(t))
	static.Fn = testApp().Fn
	var stats []*trace.Stats
	for _, app := range []App{static, testApp()} {
		res, err := e.Run(Cell{App: app, NRanks: 2, Scenario: cluster.Dedicated()})
		if err != nil {
			t.Fatalf("%s: %v", app.ID, err)
		}
		stats = append(stats, res.Stats)
	}
	if stats[0] == nil || !reflect.DeepEqual(stats[0], stats[1]) {
		t.Errorf("static app's dedicated stats %+v, traced app's %+v", stats[0], stats[1])
	}
	e.memo.mu.Lock()
	defer e.memo.mu.Unlock()
	for label, en := range e.memo.entries {
		if traced := en.val.ladder != nil; traced != strings.Contains(label, "app="+testApp().ID+"|") {
			t.Errorf("%s: keeps a ladder: %v", label, traced)
		}
	}
}

// TestStaticCellCacheIdentity pins that identical static cells collapse
// to one execution and that the content key separates distinct sources.
func TestStaticCellCacheIdentity(t *testing.T) {
	s := staticTestSig(t)
	e := New(Config{Workers: 2})
	c := Cell{App: StaticApp(s), NRanks: 2, Scenario: cluster.Dedicated(), K: 4}
	a, err := e.Run(c)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := e.Run(c)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Time != b.Time {
		t.Errorf("cache hit returned different time: %g vs %g", a.Time, b.Time)
	}
	if st := e.Stats(); st.Sims != 1 || st.Hits == 0 {
		t.Errorf("stats = %+v, want 1 sim and at least 1 hit", st)
	}

	// A different source hash in the key is a different cell.
	s2 := &StaticSig{Key: "static|app=iter-v1|class=S|p=2|src=feedface00000000", Sig: s.Sig}
	c2 := c
	c2.App = StaticApp(s2)
	if _, err := e.Run(c2); err != nil {
		t.Fatalf("run under new key: %v", err)
	}
	if st := e.Stats(); st.Sims != 2 {
		t.Errorf("new content key reused old cell: %d sims, want 2", st.Sims)
	}
}

// TestStaticPredictWithoutBody pins the body-less static prediction:
// the signature's modeled AppTime is the dedicated baseline, so a cell
// costs exactly the two skeleton simulations and no application run.
// Measuring the application still needs a program body.
func TestStaticPredictWithoutBody(t *testing.T) {
	s := staticTestSig(t)
	sc, err := cluster.ByName("cpu-one-node", 2)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 1})
	c := Cell{App: StaticApp(s), NRanks: 2, Scenario: sc, K: 4}
	got, err := e.Predict(c)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if n := e.Stats().Sims; n != 2 {
		t.Errorf("static prediction executed %d simulations, want 2 (dedicated and scenario skeleton runs)", n)
	}
	skelScen, err := e.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	ded := c
	ded.Scenario = cluster.Dedicated()
	skelDed, err := e.Run(ded)
	if err != nil {
		t.Fatal(err)
	}
	want := Prediction{
		App: c.App.ID, NRanks: 2, K: 4, Scenario: sc.Name,
		AppDedicated:  s.Sig.AppTime,
		SkelDedicated: skelDed.Time,
		SkelScenario:  skelScen.Time,
		Predicted:     predict.Predict(skelScen.Time, predict.Ratio(s.Sig.AppTime, skelDed.Time)),
	}
	if got != want {
		t.Errorf("static prediction\n got %+v\nwant %+v", got, want)
	}

	g := Grid{Apps: []App{StaticApp(s)}, NRanks: 2, Scenarios: []cluster.Scenario{sc}, Ks: []int{4}, MeasureApp: true}
	if _, err := e.PredictAll(g); err == nil || !strings.Contains(err.Error(), "no program body") {
		t.Errorf("MeasureApp on a static app without a program body: err = %v, want a no-program-body error", err)
	}
}
