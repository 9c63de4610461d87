package campaign

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/skeleton"
	"perfskel/internal/trace"
)

// testApp is a small deterministic iterative program: cheap enough that
// the grid tests stay fast, structured enough (loop of compute +
// sendrecv + allreduce) that skeleton construction finds its cycle.
func testApp() App {
	return CustomApp("iter-v1", func(c *mpi.Comm) {
		peer := c.Rank() ^ 1
		for i := 0; i < 30; i++ {
			c.Compute(0.002)
			c.Sendrecv(peer, 4096, peer, 1)
			c.Allreduce(8)
		}
	})
}

func testGrid(measure bool) Grid {
	return Grid{
		Apps:       []App{testApp()},
		NRanks:     2,
		Scenarios:  cluster.PaperScenarios(2),
		Ks:         []int{4, 8},
		MeasureApp: measure,
	}
}

// campaignArtifacts runs the full grid with telemetry on and returns the
// three serialized artefacts: predictions JSON, merged Perfetto, merged
// metrics.
func campaignArtifacts(t *testing.T, workers int) (preds, perfetto, metrics []byte) {
	t.Helper()
	eng := New(Config{Workers: workers, Telemetry: true})
	ps, err := eng.PredictAll(testGrid(true))
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.MarshalIndent(ps, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	var pf, mt bytes.Buffer
	if err := eng.WritePerfetto(&pf); err != nil {
		t.Fatal(err)
	}
	if err := eng.WriteMetrics(&mt); err != nil {
		t.Fatal(err)
	}
	return pj, pf.Bytes(), mt.Bytes()
}

// The tentpole determinism guarantee: the same grid at 1, 4 and 16
// workers produces byte-identical predictions AND byte-identical merged
// telemetry exports. Run under -race this is also the engine's main
// concurrency test.
func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	basePreds, basePerfetto, baseMetrics := campaignArtifacts(t, 1)
	for _, workers := range []int{4, 16} {
		preds, perfetto, metrics := campaignArtifacts(t, workers)
		if !bytes.Equal(preds, basePreds) {
			t.Errorf("predictions differ between 1 and %d workers", workers)
		}
		if !bytes.Equal(perfetto, basePerfetto) {
			t.Errorf("merged Perfetto export differs between 1 and %d workers", workers)
		}
		if !bytes.Equal(metrics, baseMetrics) {
			t.Errorf("merged metrics export differs between 1 and %d workers", workers)
		}
	}
}

// Identical cells are simulated once per campaign: the dedicated
// application baseline is shared by every prediction, the dedicated
// skeleton run by every scenario of its K.
func TestCampaignDeduplicatesSharedBaselines(t *testing.T) {
	eng := New(Config{Workers: 8})
	g := testGrid(true)
	preds, err := eng.PredictAll(g)
	if err != nil {
		t.Fatal(err)
	}
	nScen := len(cluster.PaperScenarios(2))
	if len(preds) != 2*nScen {
		t.Fatalf("got %d predictions, want %d", len(preds), 2*nScen)
	}
	// Distinct simulations: 1 dedicated app run, 2 dedicated skeleton
	// runs (one per K), 2*nScen skeleton scenario runs, nScen measured
	// app runs.
	want := int64(1 + 2 + 2*nScen + nScen)
	st := eng.Stats()
	if st.Sims != want {
		t.Errorf("Sims = %d, want %d (baselines not deduplicated?)", st.Sims, want)
	}
	if st.Hits == 0 {
		t.Error("expected memory cache hits from shared baselines")
	}
}

// A cache hit returns the identical value as a fresh run, and executes
// nothing.
func TestCacheHitIdenticalToFreshRun(t *testing.T) {
	eng := New(Config{})
	cell := Cell{App: testApp(), NRanks: 2, Scenario: cluster.CPUOneNode(), K: 4}
	fresh, err := eng.Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	simsAfterFresh := eng.Stats().Sims
	hit, err := eng.Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Time != fresh.Time {
		t.Errorf("cache hit time %v != fresh %v", hit.Time, fresh.Time)
	}
	if hit.Stats != fresh.Stats {
		t.Error("cache hit returned a different Stats value than the fresh run")
	}
	if got := eng.Stats().Sims; got != simsAfterFresh {
		t.Errorf("cache hit executed %d extra simulations", got-simsAfterFresh)
	}
}

// The on-disk cache carries results across engines (processes): a second
// engine over the same directory satisfies every cell without a single
// simulation, and returns equal values.
func TestDiskCacheAcrossEngines(t *testing.T) {
	dir := t.TempDir()
	cell := Cell{App: testApp(), NRanks: 2, Scenario: cluster.NetOneLink(), K: 4}

	cold := New(Config{CacheDir: dir})
	first, err := cold.Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats().Sims == 0 {
		t.Fatal("cold engine executed no simulations")
	}

	warm := New(Config{CacheDir: dir})
	second, err := warm.Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Sims != 0 {
		t.Errorf("warm engine executed %d simulations, want 0", st.Sims)
	}
	if st.DiskHits == 0 {
		t.Error("warm engine recorded no disk hits")
	}
	if second.Time != first.Time {
		t.Errorf("disk cache returned time %v, fresh run %v", second.Time, first.Time)
	}
	if second.Stats == nil || first.Stats == nil {
		t.Fatal("run stats missing")
	}
	if second.Stats.MPIFrac != first.Stats.MPIFrac {
		t.Errorf("disk cache returned MPIFrac %v, fresh run %v", second.Stats.MPIFrac, first.Stats.MPIFrac)
	}
}

// Telemetry collection needs real executions: an engine with Telemetry
// set writes the disk cache but never reads it, so every cell it reports
// on was actually observed.
func TestTelemetryBypassesDiskReads(t *testing.T) {
	dir := t.TempDir()
	cell := Cell{App: testApp(), NRanks: 2, Scenario: cluster.CPUOneNode(), K: 4}
	seed := New(Config{CacheDir: dir})
	if _, err := seed.Run(cell); err != nil {
		t.Fatal(err)
	}

	tel := New(Config{CacheDir: dir, Telemetry: true})
	res, err := tel.Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	if tel.Stats().Sims == 0 {
		t.Error("telemetry engine served cells from disk; merged export would be incomplete")
	}
	if res.Telemetry == nil {
		t.Error("telemetry engine returned no collector")
	}
	if len(tel.TelemetryCells()) == 0 {
		t.Error("no telemetry cells recorded")
	}
}

// A scenario with an injected random generator has no content identity
// and must be rejected, not silently cached.
func TestInjectedRandScenarioRejected(t *testing.T) {
	sc := cluster.WithCrossTraffic(cluster.Dedicated(), cluster.CrossTraffic{
		MeanGap: 0.01, MeanBytes: 1e5,
	})
	// Seed-derived traffic is fine...
	eng := New(Config{})
	if _, err := eng.Run(Cell{App: testApp(), NRanks: 2, Scenario: sc}); err != nil {
		t.Fatalf("seed-derived traffic scenario should run: %v", err)
	}
	// ...an injected generator is not.
	bad := sc
	tr := *sc.Traffic
	tr.Rand = rand.New(rand.NewSource(1))
	bad.Traffic = &tr
	if _, err := eng.Run(Cell{App: testApp(), NRanks: 2, Scenario: bad}); err == nil {
		t.Fatal("injected-Rand scenario must be rejected")
	}
}

// The scale mode is part of the content key: the same (app, K, scenario)
// under ByteScale and TimeScale are different cells.
func TestScaleModeInContentKey(t *testing.T) {
	eng := New(Config{})
	base := Cell{App: testApp(), NRanks: 2, Scenario: cluster.NetAllLinks(2), K: 4}
	byteScale, err := eng.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	timeCell := base
	timeCell.Mode = skeleton.TimeScale
	timeScale, err := eng.Run(timeCell)
	if err != nil {
		t.Fatal(err)
	}
	if byteScale.Time == timeScale.Time {
		t.Error("ByteScale and TimeScale skeleton runs returned the same time; mode may be missing from the key")
	}
	progB, _, err := eng.Construct(base)
	if err != nil {
		t.Fatal(err)
	}
	progT, _, err := eng.Construct(timeCell)
	if err != nil {
		t.Fatal(err)
	}
	if progB.Ops(0) == progT.Ops(0) {
		t.Log("note: modes produced equal op counts; times still differ")
	}
}

// Construct validates its input and Predict refuses K=0 cells.
func TestCampaignValidation(t *testing.T) {
	eng := New(Config{})
	if _, _, err := eng.Construct(Cell{App: testApp(), NRanks: 2}); err == nil {
		t.Error("Construct with K=0 should fail")
	}
	if _, err := eng.Predict(Cell{App: testApp(), NRanks: 2}); err == nil {
		t.Error("Predict with K=0 should fail")
	}
	if _, err := eng.Run(Cell{NRanks: 2, Scenario: cluster.Dedicated()}); err == nil {
		t.Error("Run without an app should fail")
	}
	if _, err := eng.Run(Cell{App: App{ID: "", Fn: testApp().Fn}, NRanks: 2}); err == nil {
		t.Error("Run without an app identity should fail")
	}
}

// Every skeleton of one trace builds from one memoized ladder, whatever
// its K, kept by the dedicated application run cell; no cell reaches a
// trace or a trace event once the grid is done.
func TestOneLadderPerTrace(t *testing.T) {
	eng := New(Config{Workers: 4})
	g := testGrid(true)
	g.Ks = []int{2, 4, 8}
	if _, err := eng.PredictAll(g); err != nil {
		t.Fatal(err)
	}
	eng.memo.mu.Lock()
	defer eng.memo.mu.Unlock()
	ladders := 0
	for label, e := range eng.memo.entries {
		if e.val.ladder != nil {
			ladders++
			if !strings.HasPrefix(label, "run|") || !strings.Contains(label, "|"+dedicatedCanon+"|") {
				t.Errorf("%s keeps a ladder", label)
			}
		}
		if reachesTrace(reflect.ValueOf(e.val), map[uintptr]bool{}) {
			t.Errorf("%s reaches a trace", label)
		}
	}
	if ladders != 1 {
		t.Errorf("%d ladders, want one", ladders)
	}
}

// TestDiskServedRunStillBuilds: a dedicated run served from the disk
// cache carries no ladder, so building a skeleton on it re-simulates the
// run once, in memory, and yields the same program and signature bytes
// as an engine that traced the run itself.
func TestDiskServedRunStillBuilds(t *testing.T) {
	dir := t.TempDir()
	dedicated := Cell{App: testApp(), NRanks: 2, Scenario: cluster.Dedicated()}
	if _, err := New(Config{CacheDir: dir}).Run(dedicated); err != nil {
		t.Fatal(err)
	}
	build := dedicated
	build.K = 4
	encode := func(e *Engine) (prog, sig []byte) {
		t.Helper()
		p, s, err := e.Construct(build)
		if err != nil {
			t.Fatal(err)
		}
		var pb, sb bytes.Buffer
		if err := p.Write(&pb); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(&sb); err != nil {
			t.Fatal(err)
		}
		return pb.Bytes(), sb.Bytes()
	}
	warm := New(Config{CacheDir: dir})
	if _, err := warm.Run(dedicated); err != nil {
		t.Fatal(err)
	}
	gotProg, gotSig := encode(warm)
	wantProg, wantSig := encode(New(Config{}))
	if !bytes.Equal(gotProg, wantProg) || !bytes.Equal(gotSig, wantSig) {
		t.Error("skeleton built on a disk-served dedicated run differs from a fresh engine's")
	}
	if st := warm.Stats(); st.DiskHits != 1 || st.Sims != 1 {
		t.Errorf("warm engine: %d disk hits and %d sims, want 1 and 1 (the ladder's re-simulation)", st.DiskHits, st.Sims)
	}
	// A second K builds from the same memory-only ladder.
	build.K = 8
	if _, _, err := warm.Construct(build); err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Sims != 1 {
		t.Errorf("second build re-simulated: %d sims", st.Sims)
	}
	warm.memo.mu.Lock()
	defer warm.memo.mu.Unlock()
	for label, e := range warm.memo.entries {
		if reachesTrace(reflect.ValueOf(e.val), map[uintptr]bool{}) {
			t.Errorf("%s reaches a trace", label)
		}
	}
}

var traceTypes = map[reflect.Type]bool{
	reflect.TypeOf(trace.Trace{}): true,
	reflect.TypeOf(trace.Event{}): true,
}

// reachesTrace reports whether a trace, or any trace event, is reachable
// from v through pointers, interfaces, structs, slices, arrays and maps.
func reachesTrace(v reflect.Value, seen map[uintptr]bool) bool {
	if traceTypes[v.Type()] {
		return true
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return false
		}
		seen[v.Pointer()] = true
		return reachesTrace(v.Elem(), seen)
	case reflect.Interface:
		return !v.IsNil() && reachesTrace(v.Elem(), seen)
	case reflect.Struct:
		for i := range v.NumField() {
			if reachesTrace(v.Field(i), seen) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		if k := v.Type().Elem().Kind(); k <= reflect.Complex128 || k == reflect.String {
			return false
		}
		for i := range v.Len() {
			if reachesTrace(v.Index(i), seen) {
				return true
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if reachesTrace(it.Key(), seen) || reachesTrace(it.Value(), seen) {
				return true
			}
		}
	}
	return false
}
