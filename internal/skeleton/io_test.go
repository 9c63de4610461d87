package skeleton

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
)

func TestProgramRoundTrip(t *testing.T) {
	sig := traceAndSign(t, 2, 5, iterApp)
	p, err := Build(sig, 10)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NRanks != p.NRanks || got.K != p.K || got.Good != p.Good ||
		got.AppTime != p.AppTime || got.MinGoodTime != p.MinGoodTime {
		t.Errorf("metadata mismatch: %+v vs %+v", got, p)
	}
	if !reflect.DeepEqual(got.PerRank, p.PerRank) {
		t.Error("program trees differ after round trip")
	}
}

func TestProgramSaveLoadAndRun(t *testing.T) {
	sig := traceAndSign(t, 2, 5, iterApp)
	p, err := Build(sig, 20)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "skel.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// A loaded program must execute identically to the original.
	run := func(prog *Program) float64 {
		cl := cluster.Build(cluster.Testbed(2), cluster.Dedicated())
		d, err := Run(prog, cl, freeCfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if d1, d2 := run(p), run(got); d1 != d2 {
		t.Errorf("loaded program ran %v, original %v", d2, d1)
	}
}

func TestReadRejectsCorruptPrograms(t *testing.T) {
	cases := []string{
		`{"nranks":2,"perrank":[[]]}`,                      // rank count mismatch
		`{"nranks":1,"perrank":[[{"dur":1}]]}`,             // neither op nor loop
		`{"nranks":1,"perrank":[[{"loop":{"count":-2}}]]}`, // negative count
		`not json`, // garbage
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", c)
		}
	}
}

// TestRunRejectsOutOfRangeRoot checks that a program whose Bcast names a
// root outside the world fails as a run error rather than running as if
// some other rank were the root.
func TestRunRejectsOutOfRangeRoot(t *testing.T) {
	op := fmt.Sprintf(`{"op":{"Kind":%d,"Peer":9,"Bytes":64}}`, mpi.OpBcast)
	src := fmt.Sprintf(`{"nranks":2,"perrank":[[%s],[%s]]}`, op, op)
	p, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.Build(cluster.Testbed(2), cluster.Dedicated())
	_, err = Run(p, cl, mpi.Config{}, nil)
	if err == nil || !strings.Contains(err.Error(), "Bcast with invalid root 9") {
		t.Errorf("err = %v, want an invalid-root run error", err)
	}
}
