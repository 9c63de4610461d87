package staticsig

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfskel/internal/analysis"
	"perfskel/internal/analysis/commgraph"
	"perfskel/internal/nas"
)

// nasSource loads the NAS models package once per test binary.
func nasSource(t testing.TB) commgraph.Source {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.Load("perfskel/internal/nas")
	if err != nil {
		t.Fatalf("load nas: %v", err)
	}
	return commgraph.Source{Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info}
}

func TestExtractAllBenchmarks(t *testing.T) {
	src := nasSource(t)
	for _, name := range nas.AllBenchmarks() {
		p, err := Extract(src, name)
		if err != nil {
			t.Fatalf("Extract(%s): %v", name, err)
		}
		inst, err := p.Instantiate(4, string(nas.ClassS))
		if err != nil {
			t.Fatalf("Instantiate(%s, 4, S): %v", name, err)
		}
		if inst.Sig.NRanks != 4 || inst.Sig.TraceEvents == 0 {
			t.Fatalf("%s: bad signature: %d ranks, %d events", name, inst.Sig.NRanks, inst.Sig.TraceEvents)
		}
		t.Logf("%s: %d events, %d clusters, %d leaves, apptime %.3fs, params %v, placeholders %d",
			name, inst.Sig.TraceEvents, len(inst.Sig.Clusters), inst.Sig.Len(), inst.Sig.AppTime,
			inst.Params, len(inst.Placeholders))
	}
}

// ringSource is a self-contained rank program: its own Comm type
// stands in for the runtime's, so the package loads without the module.
const ringSource = `package ring

type Comm struct{ rank, size int }

func (c *Comm) Rank() int                  { return c.rank }
func (c *Comm) Size() int                  { return c.size }
func (c *Comm) Send(dst, tag int, n int64) {}
func (c *Comm) Recv(src, tag int)          {}

func Ring(class string) func(c *Comm) {
	return func(c *Comm) {
		c.Send((c.Rank()+1)%c.Size(), 0, 64)
		c.Recv((c.Rank()+c.Size()-1)%c.Size(), 0)
	}
}
`

// ringModule writes src as package ring of a throwaway module in dir
// and loads it.
func ringModule(t *testing.T, dir, src string) commgraph.Source {
	t.Helper()
	for name, body := range map[string]string{
		"go.mod":       "module example.com/ring\n",
		"ring/ring.go": src,
	} {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join(dir, "ring"))
	if err != nil {
		t.Fatal(err)
	}
	return commgraph.Source{Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info}
}

// TestKeyIndependentOfCheckoutPath: two checkouts of byte-identical
// source in differently named directories must content-address to the
// same instance key (the campaign app ID, cache address and service
// synthesis key all derive from it).
func TestKeyIndependentOfCheckoutPath(t *testing.T) {
	key := func(dir string) string {
		par, err := Extract(ringModule(t, dir, ringSource), "Ring")
		if err != nil {
			t.Fatal(err)
		}
		inst, err := par.Instantiate(4, "S")
		if err != nil {
			t.Fatal(err)
		}
		return inst.Key
	}
	tmp := t.TempDir()
	a := key(filepath.Join(tmp, "checkout-a"))
	b := key(filepath.Join(tmp, "elsewhere", "second-checkout"))
	if a != b {
		t.Errorf("identical source under two paths keyed differently:\n  %s\n  %s", a, b)
	}
}

// TestExpandedOperationBound: nested loop counts multiply to 2^90
// Barriers per rank. The expanded count must be rejected, naming the
// loop whose count crosses the bound (the second one), not wrap to zero
// and pass for a program with no operations.
func TestExpandedOperationBound(t *testing.T) {
	const src = `package ring

type Comm struct{}

func (c *Comm) Barrier() {}

func Deep(class string) func(c *Comm) {
	return func(c *Comm) {
		for i := 0; i < 1<<30; i++ {
			for j := 0; j < 1<<30; j++ {
				for k := 0; k < 1<<30; k++ {
					c.Barrier()
				}
			}
		}
	}
}
`
	par, err := Extract(ringModule(t, t.TempDir(), src), "Deep")
	if err != nil {
		t.Fatal(err)
	}
	_, err = par.Instantiate(2, "S")
	if err == nil {
		t.Fatal("Instantiate accepted 2^90 operations per rank")
	}
	want := "ring.go:10:4 expands a rank past 1073741824 operations"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the loop (want %q)", err, want)
	}
}
