package campaign

import (
	"math"
	"os"
	"testing"

	"perfskel/internal/cluster"
	"perfskel/internal/skeleton"
)

// FuzzLoadDisk: loadDisk never panics on an arbitrary entry, and every
// entry it accepts holds what its cell kind keeps: a run a finite time
// >= 0, Stats exactly when the kind keeps them, and no program; a build a
// program and a signature. The seeds are the entries an engine writes
// for a skeleton cell's build and run, plus the two incomplete entries
// that once got through.
func FuzzLoadDisk(f *testing.F) {
	dir := f.TempDir()
	e := New(Config{CacheDir: dir})
	c := Cell{App: testApp(), NRanks: 2, Scenario: cluster.NetOneLink(), K: 4}
	if _, err := e.Run(c); err != nil {
		f.Fatal(err)
	}
	c, l := cellLabels(f, e, c)
	build, srun := buildLabel(c, l, skeleton.Options{}), skelRunLabel(c, l, skeleton.Options{})
	for _, label := range []string{build, srun} {
		raw, err := os.ReadFile(e.memo.path(label))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(label, raw)
	}
	f.Add(build, []byte(`{"label":"`+build+`"}`))
	f.Add(srun, []byte(`{"label":"`+srun+`","time":-5,"stats":{}}`))

	m := newMemo(f.TempDir())
	f.Fuzz(func(t *testing.T, label string, data []byte) {
		if err := os.WriteFile(m.path(label), data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, kind := range []cellKind{timedRun, statsRun, buildCell} {
			v, ok := m.loadDisk(label, kind)
			if !ok {
				continue
			}
			if kind == buildCell {
				if v.prog == nil || v.sig == nil {
					t.Fatalf("build entry accepted without a program or signature: %s", data)
				}
				continue
			}
			if math.IsNaN(v.time) || math.IsInf(v.time, 0) || v.time < 0 {
				t.Fatalf("run entry accepted with time %v", v.time)
			}
			if (v.stats != nil) != (kind == statsRun) || v.prog != nil || v.sig != nil {
				t.Fatalf("kind %d entry accepted as %+v", kind, v)
			}
		}
	})
}
