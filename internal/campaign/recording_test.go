package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/skeleton"
	"perfskel/internal/trace"
)

// cellLabels returns the normalized cell and its canonical labels.
func cellLabels(t testing.TB, e *Engine, c Cell) (Cell, labels) {
	t.Helper()
	c, err := e.norm(c)
	if err != nil {
		t.Fatal(err)
	}
	l, err := e.labelsFor(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, l
}

// referenceStats runs prog (or, when prog is nil, the app's body) under
// the cell's scenario into a full trace.Recorder and returns its time and
// Stats: what every run recorded before measured runs went unmonitored.
func referenceStats(t *testing.T, c Cell, prog *skeleton.Program) (float64, trace.Stats) {
	t.Helper()
	cl := cluster.Build(cluster.Testbed(c.NRanks), c.Scenario)
	rec := trace.NewRecorder(c.NRanks)
	var dur float64
	var err error
	if prog != nil {
		dur, err = skeleton.Run(prog, cl, mpi.Config{}, rec)
	} else {
		dur, err = mpi.Run(cl, c.NRanks, mpi.Config{}, rec, c.App.Fn)
	}
	if err != nil {
		t.Fatal(err)
	}
	return dur, rec.Finish(dur).Stats()
}

// TestMeasuredRunsCarryNoStats: after a MeasureApp grid, every measured
// cell (the application under a sharing scenario) carries its time and no
// Stats, while the dedicated application run and every skeleton run keep
// the Stats a full trace of the same run gives.
func TestMeasuredRunsCarryNoStats(t *testing.T) {
	e := New(Config{Workers: 2})
	g := testGrid(true)
	preds, err := e.PredictAll(g)
	if err != nil {
		t.Fatal(err)
	}
	simsAfterGrid := e.Stats().Sims

	cell := func(sc cluster.Scenario, k int) Cell {
		return Cell{App: testApp(), NRanks: g.NRanks, Scenario: sc, K: k}
	}
	check := func(c Cell, prog *skeleton.Program) {
		t.Helper()
		res, err := e.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		dur, want := referenceStats(t, c, prog)
		if res.Time != dur {
			t.Errorf("%s K=%d: time %v, full trace %v", c.Scenario.Name, c.K, res.Time, dur)
		}
		if res.Stats == nil || !reflect.DeepEqual(*res.Stats, want) {
			t.Errorf("%s K=%d: Stats %+v, full trace %+v", c.Scenario.Name, c.K, res.Stats, want)
		}
	}

	check(cell(cluster.Dedicated(), 0), nil)
	for _, k := range g.Ks {
		prog, _, err := e.Construct(cell(cluster.Dedicated(), k))
		if err != nil {
			t.Fatal(err)
		}
		check(cell(cluster.Dedicated(), k), prog)
		for _, sc := range g.Scenarios {
			check(cell(sc, k), prog)
		}
	}
	for i, sc := range g.Scenarios {
		res, err := e.Run(cell(sc, 0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats != nil {
			t.Errorf("measured %s: Stats %+v, want nil", sc.Name, res.Stats)
		}
		if res.Time != preds[i].AppActual {
			t.Errorf("measured %s: time %v, prediction's actual %v", sc.Name, res.Time, preds[i].AppActual)
		}
		if dur, _ := referenceStats(t, cell(sc, 0), nil); res.Time != dur {
			t.Errorf("measured %s: time %v, traced run %v", sc.Name, res.Time, dur)
		}
	}
	if got := e.Stats().Sims; got != simsAfterGrid {
		t.Errorf("re-reading the grid's cells ran %d simulations", got-simsAfterGrid)
	}
}

// TestMeasuredRunCacheHits: a measured cell served from memory, from a
// disk entry this engine wrote, or from an older disk entry that still
// holds Stats is indistinguishable from the fresh run: the same time and
// nil Stats, with no simulation.
func TestMeasuredRunCacheHits(t *testing.T) {
	dir := t.TempDir()
	c := Cell{App: testApp(), NRanks: 2, Scenario: cluster.CPUOneNode()}
	cold := New(Config{CacheDir: dir})
	fresh, err := cold.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stats != nil {
		t.Fatalf("fresh measured run carries Stats %+v", fresh.Stats)
	}
	hit, err := cold.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if hit != fresh || cold.Stats().Hits != 1 {
		t.Errorf("memory hit %+v (hits %d), fresh %+v", hit, cold.Stats().Hits, fresh)
	}

	nc, l := cellLabels(t, cold, c)
	label := appRunLabel(nc, l)
	raw, err := os.ReadFile(cold.memo.path(label))
	if err != nil {
		t.Fatal(err)
	}
	var de diskEntry
	if err := json.Unmarshal(raw, &de); err != nil {
		t.Fatal(err)
	}
	if de.Stats != nil {
		t.Errorf("disk entry of a measured run holds Stats: %s", raw)
	}
	_, old := referenceStats(t, c, nil)
	de.Stats = &old
	withStats, err := json.Marshal(de)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		entry []byte
	}{
		{"written by this engine", raw},
		{"holding Stats", withStats},
	} {
		if err := os.WriteFile(cold.memo.path(label), tc.entry, 0o644); err != nil {
			t.Fatal(err)
		}
		warm := New(Config{CacheDir: dir})
		got, err := warm.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != fresh {
			t.Errorf("disk entry %s: got %+v, fresh %+v", tc.name, got, fresh)
		}
		if st := warm.Stats(); st.DiskHits != 1 || st.Sims != 0 {
			t.Errorf("disk entry %s: %+v, want one disk hit and no simulation", tc.name, st)
		}
	}
}

// writeEntry replaces the disk entry of label in e's cache directory.
func writeEntry(t *testing.T, e *Engine, label, entry string) {
	t.Helper()
	if err := os.MkdirAll(e.memo.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(e.memo.dir, keyOf(label)+".json"), []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestIncompleteDiskEntriesMiss: a disk entry that decodes but lacks what
// its cell keeps is a miss and the cell is recomputed. A build entry with
// only its label used to reach the skeleton run as a nil program and
// panic; a run entry with a negative time used to be served.
func TestIncompleteDiskEntriesMiss(t *testing.T) {
	skel := Cell{App: testApp(), NRanks: 2, Scenario: cluster.NetOneLink(), K: 4}
	app := Cell{App: testApp(), NRanks: 2, Scenario: cluster.Dedicated()}
	measured := Cell{App: testApp(), NRanks: 2, Scenario: cluster.NetOneLink()}
	ref := New(Config{})
	prog, _, err := ref.Construct(skel)
	if err != nil {
		t.Fatal(err)
	}
	var progJSON bytes.Buffer
	if err := prog.Write(&progJSON); err != nil {
		t.Fatal(err)
	}

	buildLbl := func(c Cell, l labels) string { return buildLabel(c, l, skeleton.Options{}) }
	srunLbl := func(c Cell, l labels) string { return skelRunLabel(c, l, skeleton.Options{}) }
	for _, tc := range []struct {
		name  string
		cell  Cell
		label func(Cell, labels) string
		entry string // the label goes where LABEL stands
	}{
		{"build entry with only its label", skel, buildLbl, `{"label":LABEL}`},
		{"build entry without a signature", skel, buildLbl, `{"label":LABEL,"program":` + progJSON.String() + `}`},
		{"skeleton run with a negative time", skel, srunLbl, `{"label":LABEL,"time":-5,"stats":{}}`},
		{"skeleton run without Stats", skel, srunLbl, `{"label":LABEL,"time":1}`},
		{"measured run with a negative time", measured, appRunLabel, `{"label":LABEL,"time":-5}`},
		{"dedicated run without Stats", app, appRunLabel, `{"label":LABEL,"time":1}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Config{CacheDir: t.TempDir()})
			c, l := cellLabels(t, e, tc.cell)
			label := tc.label(c, l)
			q, _ := json.Marshal(label)
			writeEntry(t, e, label, strings.Replace(tc.entry, "LABEL", string(q), 1))
			got, err := e.Run(tc.cell)
			if err != nil {
				t.Fatal(err)
			}
			w, err := ref.Run(tc.cell)
			if err != nil {
				t.Fatal(err)
			}
			if got.Time != w.Time || !reflect.DeepEqual(got.Stats, w.Stats) {
				t.Errorf("got %v %+v, fresh run %v %+v", got.Time, got.Stats, w.Time, w.Stats)
			}
			if tc.cell.K > 0 {
				if p, sig, err := e.Construct(tc.cell); err != nil || p == nil || sig == nil {
					t.Errorf("Construct = %v, %v, %v; want a program and a signature", p, sig, err)
				}
			}
			if e.Stats().DiskHits != 0 {
				t.Errorf("incomplete entry served as a disk hit: %+v", e.Stats())
			}
		})
	}
}
