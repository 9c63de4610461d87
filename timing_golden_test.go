// Determinism equivalence gate for the simulation core: the engine's
// virtual timings are load-bearing for every byte-identical guarantee in
// the repo (Perfetto exports, campaign merges, signature goldens), so any
// engine optimization must reproduce the pre-optimization timings
// bit-for-bit. This test runs a NAS grid (CG/MG/IS class S on 4 ranks
// under three scenarios) and compares, against goldens captured before
// the event-loop overhaul:
//
//   - the final virtual time of every cell, as exact float64 bits;
//   - the engine's Stats() counters (events, procs, per-CPU busy time and
//     per-link byte counts, all bit-exact);
//   - the SHA-256 of every cell's Perfetto export and rendered metrics;
//   - the SHA-256 of the merged Perfetto document over the whole grid.
//
// A second, smaller grid pins the rank-scale regime, where many flows
// share a link component at once: IS and MG class S on 64 ranks,
// dedicated and combined, and CG class S on 16 ranks combined. It has its
// own cell list, so the 4-rank cells and their merged SHA are untouched
// by it, and its cells carry no Perfetto SHA (see timingRun).
//
// Regenerate with `go test -run TestSimTimingGolden -timing-update` ONLY
// for a change that intentionally alters virtual timings; the point of
// the file is that performance work never does.
package perfskel_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/nas"
	"perfskel/internal/telemetry"
)

var timingUpdate = flag.Bool("timing-update", false, "rewrite testdata/timing_golden.json from the current engine")

const timingGoldenPath = "testdata/timing_golden.json"

// timingCell is one grid cell's bit-exact fingerprint. Float64 values
// are stored as hexadecimal IEEE-754 bit patterns so JSON round-tripping
// cannot lose precision.
type timingCell struct {
	Label       string   `json:"label"`
	NowBits     string   `json:"now_bits"`
	Events      int      `json:"events"`
	Procs       int      `json:"procs"`
	CPUBusyBits []string `json:"cpu_busy_bits"`
	LinkBits    []string `json:"link_bytes_bits"`
	PerfettoSHA string   `json:"perfetto_sha256,omitempty"`
	MetricsSHA  string   `json:"metrics_sha256"`
}

type timingGolden struct {
	Cells      []timingCell `json:"cells"`
	MergedSHA  string       `json:"merged_perfetto_sha256"`
	ScaleCells []timingCell `json:"scale_cells"`
	// ConstructCells pins trace -> skeleton construction; see
	// TestConstructGolden.
	ConstructCells []constructCell `json:"construct_cells"`
}

func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// timingRun simulates one NAS app under a scenario with a full telemetry
// collector attached and fingerprints the run. The Perfetto SHA is left
// to the caller: at 32-64 ranks the export runs to hundreds of MB, so the
// rank-scale cells pin the probe stream through the metrics render only.
func timingRun(t *testing.T, name, scName string, ranks int, label string) (timingCell, *telemetry.Collector) {
	t.Helper()
	app, err := nas.App(name, nas.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := cluster.ByName(scName, ranks)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	cl := cluster.BuildProbed(cluster.Testbed(ranks), sc, col)
	if _, err := mpi.Run(cl, ranks, mpi.Config{Probe: col}, nil, app); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	st := cl.Engine.Stats()
	cell := timingCell{
		Label:   label,
		NowBits: bits(st.Now),
		Events:  st.Events,
		Procs:   st.Procs,
	}
	for _, c := range st.CPUBusy {
		cell.CPUBusyBits = append(cell.CPUBusyBits, c.Name+"="+bits(c.Busy))
	}
	for _, l := range st.LinkBytes {
		cell.LinkBits = append(cell.LinkBits, l.Name+"="+bits(l.Bytes))
	}
	cell.MetricsSHA = sha([]byte(col.Metrics.Render()))
	return cell, col
}

// runTimingGrid executes both grids and fingerprints every cell.
func runTimingGrid(t *testing.T) timingGolden {
	t.Helper()
	const ranks = 4
	var g timingGolden
	var cells []telemetry.LabeledCollector
	for _, name := range []string{"CG", "MG", "IS"} {
		for _, scName := range []string{"dedicated", "cpu-one-node", "combined"} {
			cell, col := timingRun(t, name, scName, ranks, name+"/"+scName)
			var buf bytes.Buffer
			if err := col.WritePerfetto(&buf); err != nil {
				t.Fatal(err)
			}
			cell.PerfettoSHA = sha(buf.Bytes())
			g.Cells = append(g.Cells, cell)
			cells = append(cells, telemetry.LabeledCollector{Label: cell.Label, C: col})
		}
	}
	var merged bytes.Buffer
	if err := telemetry.WriteMergedPerfetto(&merged, cells); err != nil {
		t.Fatal(err)
	}
	g.MergedSHA = sha(merged.Bytes())
	for _, c := range []struct {
		name, sc string
		ranks    int
	}{
		{"IS", "dedicated", 64}, {"IS", "combined", 64},
		{"MG", "dedicated", 64}, {"MG", "combined", 64},
		{"CG", "combined", 16},
	} {
		cell, _ := timingRun(t, c.name, c.sc, c.ranks, fmt.Sprintf("%s/%s/%d", c.name, c.sc, c.ranks))
		g.ScaleCells = append(g.ScaleCells, cell)
	}
	return g
}

// compareTimingCells reports every divergence of got from the golden want.
func compareTimingCells(t *testing.T, got, want []timingCell) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("grid has %d cells, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Label != w.Label {
			t.Fatalf("cell %d label %q, golden %q", i, g.Label, w.Label)
		}
		if g.NowBits != w.NowBits {
			t.Errorf("%s: final virtual time bits %s, golden %s", g.Label, g.NowBits, w.NowBits)
		}
		if g.Events != w.Events || g.Procs != w.Procs {
			t.Errorf("%s: stats events=%d procs=%d, golden events=%d procs=%d",
				g.Label, g.Events, g.Procs, w.Events, w.Procs)
		}
		if strings.Join(g.CPUBusyBits, ",") != strings.Join(w.CPUBusyBits, ",") {
			t.Errorf("%s: CPU busy diverged:\n got %v\nwant %v", g.Label, g.CPUBusyBits, w.CPUBusyBits)
		}
		if strings.Join(g.LinkBits, ",") != strings.Join(w.LinkBits, ",") {
			t.Errorf("%s: link bytes diverged:\n got %v\nwant %v", g.Label, g.LinkBits, w.LinkBits)
		}
		if g.PerfettoSHA != w.PerfettoSHA {
			t.Errorf("%s: Perfetto output diverged (sha %s, golden %s)", g.Label, g.PerfettoSHA, w.PerfettoSHA)
		}
		if g.MetricsSHA != w.MetricsSHA {
			t.Errorf("%s: metrics render diverged (sha %s, golden %s)", g.Label, g.MetricsSHA, w.MetricsSHA)
		}
	}
}

// TestSimTimingGolden pins the simulation core's virtual timings to the
// pre-optimization goldens, byte for byte.
func TestSimTimingGolden(t *testing.T) {
	got := runTimingGrid(t)
	if *timingUpdate {
		updateTimingGolden(t, func(g *timingGolden) {
			g.Cells, g.MergedSHA, g.ScaleCells = got.Cells, got.MergedSHA, got.ScaleCells
		})
		return
	}
	want := readTimingGolden(t)
	compareTimingCells(t, got.Cells, want.Cells)
	compareTimingCells(t, got.ScaleCells, want.ScaleCells)
	if got.MergedSHA != want.MergedSHA {
		t.Errorf("merged Perfetto diverged (sha %s, golden %s)", got.MergedSHA, want.MergedSHA)
	}
}

// readTimingGolden loads the committed golden file.
func readTimingGolden(t *testing.T) timingGolden {
	t.Helper()
	raw, err := os.ReadFile(timingGoldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -timing-update): %v", err)
	}
	var g timingGolden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// updateTimingGolden rewrites the golden file with one test's sections
// replaced, keeping the sections other tests own.
func updateTimingGolden(t *testing.T, set func(*timingGolden)) {
	t.Helper()
	var g timingGolden
	if raw, err := os.ReadFile(timingGoldenPath); err == nil {
		if err := json.Unmarshal(raw, &g); err != nil {
			t.Fatal(err)
		}
	}
	set(&g)
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(timingGoldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(timingGoldenPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", timingGoldenPath)
}
