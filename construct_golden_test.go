// Bit-exact gate for trace -> skeleton construction: signature
// clustering, loop folding, the threshold search and the K-scaling of
// skeleton.BuildFromTrace. Every cell traces a NAS app at class S on a
// dedicated testbed and builds its skeleton through Construct(WithK);
// the golden pins the SHA-256 of the written signature and program, the
// chosen threshold and achieved ratio as float64 bits, and TargetMet.
// The cells live in testdata/timing_golden.json's construct_cells
// section and are rewritten by the same -timing-update flag, which is
// only for a change that intentionally alters construction output.
package perfskel_test

import (
	"bytes"
	"fmt"
	"testing"

	"perfskel"
	"perfskel/internal/nas"
)

// constructCell is one construction's bit-exact fingerprint.
type constructCell struct {
	Label         string `json:"label"`
	SignatureSHA  string `json:"signature_sha256"`
	ProgramSHA    string `json:"program_sha256"`
	ThresholdBits string `json:"threshold_bits"`
	RatioBits     string `json:"ratio_bits"`
	TargetMet     bool   `json:"target_met"`
}

// constructTraces lists the traced runs of the grid and the scaling
// factors each is built at: every NAS app on 4 and 16 ranks at three
// factors, plus the two largest rank-scale builds.
func constructTraces() []struct {
	app   string
	ranks int
	ks    []int
} {
	type run = struct {
		app   string
		ranks int
		ks    []int
	}
	var runs []run
	for _, app := range nas.AllBenchmarks() {
		for _, ranks := range []int{4, 16} {
			runs = append(runs, run{app, ranks, []int{2, 8, 32}})
		}
	}
	return append(runs, run{"CG", 64, []int{8}}, run{"LU", 64, []int{8}})
}

// runConstructGrid traces and builds every cell of the grid.
func runConstructGrid(t *testing.T) []constructCell {
	t.Helper()
	var cells []constructCell
	for _, r := range constructTraces() {
		app, err := nas.App(r.app, nas.ClassS)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := perfskel.NewTestbed(r.ranks, perfskel.Dedicated()).Trace(r.ranks, app)
		if err != nil {
			t.Fatalf("trace %s/%d: %v", r.app, r.ranks, err)
		}
		for _, k := range r.ks {
			label := fmt.Sprintf("%s/%d/k=%d", r.app, r.ranks, k)
			skel, sig, err := perfskel.Construct(tr, perfskel.WithK(k))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var sb, pb bytes.Buffer
			if err := sig.Write(&sb); err != nil {
				t.Fatal(err)
			}
			if err := skel.Write(&pb); err != nil {
				t.Fatal(err)
			}
			cells = append(cells, constructCell{
				Label:         label,
				SignatureSHA:  sha(sb.Bytes()),
				ProgramSHA:    sha(pb.Bytes()),
				ThresholdBits: bits(sig.Threshold),
				RatioBits:     bits(sig.Ratio),
				TargetMet:     sig.TargetMet,
			})
		}
	}
	return cells
}

// TestConstructGolden pins trace -> skeleton construction to its golden
// output, byte for byte.
func TestConstructGolden(t *testing.T) {
	got := runConstructGrid(t)
	if *timingUpdate {
		updateTimingGolden(t, func(g *timingGolden) { g.ConstructCells = got })
		return
	}
	want := readTimingGolden(t).ConstructCells
	if len(got) != len(want) {
		t.Fatalf("grid has %d cells, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("construction diverged:\n got %+v\nwant %+v", got[i], w)
		}
	}
}
