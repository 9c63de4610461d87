package critpath_test

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/nas"
	"perfskel/internal/telemetry"
	"perfskel/internal/telemetry/critpath"
)

// runApp executes app instrumented on an n-node testbed under sc and
// returns the collector and the simulated run time.
func runApp(t testing.TB, n int, sc cluster.Scenario, app mpi.App) (*telemetry.Collector, float64) {
	t.Helper()
	col := telemetry.NewCollector()
	cl := cluster.BuildProbed(cluster.Testbed(n), sc, col)
	tm, err := mpi.Run(cl, n, mpi.Config{Probe: col}, nil, app)
	if err != nil {
		t.Fatal(err)
	}
	return col, tm
}

// checkExact asserts the package's core guarantee on one run: the
// critical path's length equals the simulated makespan bit-for-bit and
// its steps tile [0, makespan] with shared float endpoints.
func checkExact(t *testing.T, col *telemetry.Collector, simTime float64) *critpath.Analysis {
	t.Helper()
	g, err := critpath.Build(col)
	if err != nil {
		t.Fatal(err)
	}
	a := g.Analyze()
	if a.PathLen != simTime {
		t.Fatalf("path length %.17g != simulated makespan %.17g", a.PathLen, simTime)
	}
	if a.Makespan != simTime {
		t.Fatalf("graph makespan %.17g != simulated makespan %.17g", a.Makespan, simTime)
	}
	if len(a.Steps) == 0 {
		t.Fatal("critical path has no steps")
	}
	if a.Steps[0].Start != 0 {
		t.Fatalf("first step starts at %.17g, want 0", a.Steps[0].Start)
	}
	for i := 1; i < len(a.Steps); i++ {
		if a.Steps[i].Start != a.Steps[i-1].End {
			t.Fatalf("step %d starts at %.17g but step %d ended at %.17g (path not contiguous)",
				i, a.Steps[i].Start, i-1, a.Steps[i-1].End)
		}
	}
	if last := a.Steps[len(a.Steps)-1].End; last != simTime {
		t.Fatalf("last step ends at %.17g, want makespan %.17g", last, simTime)
	}
	return a
}

func TestPingPongPathExact(t *testing.T) {
	// Rendezvous-sized ping-pong with asymmetric compute: the path must
	// alternate ranks through the transfer windows and still equal the
	// makespan exactly.
	const msg = 256 * 1024
	app := func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		for i := 0; i < 5; i++ {
			if c.Rank() == 0 {
				c.Compute(0.01)
				c.Send(peer, 7, msg)
				c.Recv(peer, 8)
			} else {
				c.Recv(peer, 7)
				c.Compute(0.02)
				c.Send(peer, 8, msg)
			}
		}
	}
	col, tm := runApp(t, 2, cluster.Dedicated(), app)
	a := checkExact(t, col, tm)
	// Both ranks and both compute and transfer must appear on the path.
	if a.ByRank[0] == 0 || a.ByRank[1] == 0 {
		t.Fatalf("path should visit both ranks, got per-rank attribution %v", a.ByRank)
	}
	kinds := map[string]bool{}
	for _, ks := range a.ByKind {
		kinds[ks.Kind] = true
	}
	if !kinds["transfer"] || !kinds["compute"] {
		t.Fatalf("path should contain transfer and compute steps, got kinds %v", kinds)
	}
}

func TestCollectivePathExact(t *testing.T) {
	// Allreduce-heavy program: the path must flow through the
	// collective-internal alignment traffic.
	app := func(c *mpi.Comm) {
		for i := 0; i < 4; i++ {
			c.Compute(0.002 * float64(c.Rank()+1)) // skewed arrival
			c.Allreduce(8 * 1024)
		}
	}
	col, tm := runApp(t, 4, cluster.Dedicated(), app)
	a := checkExact(t, col, tm)
	seen := map[string]bool{}
	for _, ks := range a.ByKind {
		seen[ks.Kind] = true
	}
	if !seen["align"] {
		t.Fatalf("collective-bound run should put alignment traffic on the path, got kinds %v", seen)
	}
}

// TestNASGridPathEqualsMakespan is the property test of the acceptance
// criteria: on every NAS benchmark over a fixture grid of rank counts
// and scenarios, the critical-path length equals the simulated makespan
// exactly.
func TestNASGridPathEqualsMakespan(t *testing.T) {
	scenarios := []cluster.Scenario{cluster.Dedicated(), cluster.Combined()}
	for _, bench := range nas.Benchmarks() {
		for _, n := range []int{2, 4} {
			for _, sc := range scenarios {
				bench, n, sc := bench, n, sc
				t.Run(fmt.Sprintf("%s/n%d/%s", bench, n, sc.Name), func(t *testing.T) {
					app, err := nas.App(bench, nas.ClassS)
					if err != nil {
						t.Fatal(err)
					}
					col, tm := runApp(t, n, sc, app)
					checkExact(t, col, tm)
				})
			}
		}
	}
}

func TestWhatIfMonotone(t *testing.T) {
	// Scaling a class down must never increase the predicted makespan:
	// the longest-path DP is monotone in every edge weight, exactly,
	// even in floating point.
	app, err := nas.App("CG", nas.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	col, _ := runApp(t, 4, cluster.Combined(), app)
	g, err := critpath.Build(col)
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range goodSelectors {
		cl, err := critpath.ParseClass(sel)
		if err != nil {
			t.Fatal(err)
		}
		prev := -1.0
		for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
			pred := g.WhatIf(cl, f)
			if pred < 0 {
				t.Fatalf("%s@%g predicts negative makespan %g", sel, f, pred)
			}
			if pred < prev {
				t.Fatalf("%s: prediction decreased from %g to %g as factor rose to %g", sel, prev, pred, f)
			}
			prev = pred
		}
	}
	// At factor 1, compute and transfer what-ifs leave every weight
	// untouched, so the prediction equals the baseline bit-for-bit.
	base := g.Baseline()
	for _, sel := range []string{"compute", "transfer", "compute:rank=2"} {
		cl, _ := critpath.ParseClass(sel)
		if got := g.WhatIf(cl, 1); got != base {
			t.Fatalf("%s@1 = %.17g, want baseline %.17g", sel, got, base)
		}
	}
	// The baseline DP must agree with the structural makespan closely
	// (it sums float differences, so only approximately).
	if ms := g.Makespan(); ms > 0 {
		if rel := (base - ms) / ms; rel > 1e-9 || rel < -1e-9 {
			t.Fatalf("baseline DP %.17g drifts from makespan %.17g by %g", base, ms, rel)
		}
	}
}

func TestSlowLinkWhatIfMatchesResim(t *testing.T) {
	// Inject a slow link, verify it dominates the path, then check the
	// what-if prediction for restoring it against actually re-simulating
	// with the fast link (the acceptance bar: within 5%).
	const msg = 8 << 20 // rendezvous, bandwidth-dominated
	app := func(c *mpi.Comm) {
		for i := 0; i < 3; i++ {
			if c.Rank() == 0 {
				c.Compute(0.005)
				c.Send(1, 9, msg)
			} else {
				c.Compute(0.005)
				c.Recv(0, 9)
			}
		}
	}
	slow := cluster.Scenario{Name: "slow-link", LinkBandwidth: map[int]float64{0: cluster.TenMbps}}
	colSlow, tmSlow := runApp(t, 2, slow, app)
	g, err := critpath.Build(colSlow)
	if err != nil {
		t.Fatal(err)
	}
	a := g.Analyze()
	var transfer float64
	for _, ks := range a.ByKind {
		if ks.Kind == "transfer" {
			transfer = ks.Pct
		}
	}
	if transfer < 80 {
		t.Fatalf("slow link should dominate the path, transfer share is only %.1f%%", transfer)
	}

	cl, err := critpath.ParseClass("transfer:node=0")
	if err != nil {
		t.Fatal(err)
	}
	// Restoring the link multiplies achievable bandwidth by fast/slow;
	// bandwidth-dominated windows shrink by the inverse factor.
	factor := cluster.TenMbps / cluster.GigabitBandwidth
	pred := g.WhatIf(cl, factor)

	_, tmFast := runApp(t, 2, cluster.Dedicated(), app)
	if rel := (pred - tmFast) / tmFast; rel > 0.05 || rel < -0.05 {
		t.Fatalf("what-if predicts %.6f s, re-simulation gives %.6f s (%.1f%% off, slow run was %.6f s)",
			pred, tmFast, 100*rel, tmSlow)
	}
}

// goodSelectors covers every kind and every selector key.
var goodSelectors = []string{
	"compute", "transfer", "blocked",
	"compute:rank=0", "transfer:node=0", "blocked:rank=1",
	"compute:op=Allreduce", "transfer:link=0-1",
}

var badSelectors = []string{
	"", "cache", "compute:rank=x", "compute:rank=-1", "transfer:op=Send",
	"compute:node=0", "transfer:link=3", "blocked:foo=1", "compute:rank",
}

var badSpecs = []string{"compute@-2", "compute@NaN", "compute@+Inf", "compute@-Inf", "compute@", "compute@x"}

func TestParseClassErrors(t *testing.T) {
	for _, bad := range badSelectors {
		if _, err := critpath.ParseClass(bad); err == nil {
			t.Errorf("ParseClass(%q) accepted an invalid selector", bad)
		}
	}
	cl, err := critpath.ParseClass("transfer:rank=1,phase=2,node=0,link=0-1")
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.String(); got != "transfer:rank=1,phase=2,node=0,link=0-1" {
		t.Errorf("canonical form round-trip gave %q", got)
	}
	sp, err := critpath.ParseSpec("blocked:rank=0@0.25")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Factor != 0.25 || sp.Class.Kind != "blocked" || sp.Class.Rank != 0 {
		t.Errorf("ParseSpec gave %+v", sp)
	}
	if sp, _ := critpath.ParseSpec("compute"); sp.Factor != 0.5 {
		t.Errorf("default factor = %g, want 0.5", sp.Factor)
	}
	for _, bad := range badSpecs {
		if sp, err := critpath.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted an invalid factor: %+v", bad, sp)
		}
	}
}

// FuzzParseSpec: the what-if grammar never panics, an accepted spec
// has a finite non-negative factor, and printing it in canonical form
// and parsing that again gives the same spec.
func FuzzParseSpec(f *testing.F) {
	for _, sel := range append(goodSelectors, "transfer:rank=1,phase=2,node=0,link=0-1", "compute:rank=2") {
		f.Add(sel)
		f.Add(sel + "@0.25")
	}
	for _, s := range append(badSelectors, badSpecs...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := critpath.ParseSpec(s)
		if err != nil {
			return
		}
		if sp.Factor < 0 || math.IsNaN(sp.Factor) || math.IsInf(sp.Factor, 0) {
			t.Fatalf("ParseSpec(%q) accepted factor %g", s, sp.Factor)
		}
		canon := sp.Class.String() + "@" + strconv.FormatFloat(sp.Factor, 'g', -1, 64)
		again, err := critpath.ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %+v, but its canonical form %q fails: %v", s, sp, canon, err)
		}
		if again != sp {
			t.Fatalf("ParseSpec(%q) = %+v, but its canonical form %q gives %+v", s, sp, canon, again)
		}
	})
}

func TestOutputsByteDeterministic(t *testing.T) {
	render := func() (string, string) {
		app, err := nas.App("MG", nas.ClassS)
		if err != nil {
			t.Fatal(err)
		}
		col, tm := runApp(t, 4, cluster.Combined(), app)
		g, err := critpath.Build(col)
		if err != nil {
			t.Fatal(err)
		}
		a := checkExact(t, col, tm)
		_ = a
		an := g.Analyze()
		return an.Render(10), critpath.RenderSensitivities(g.Sensitivities(g.DefaultSpecs(0.5)))
	}
	r1, s1 := render()
	r2, s2 := render()
	if r1 != r2 {
		t.Fatal("analysis render differs across identical runs")
	}
	if s1 != s2 {
		t.Fatal("sensitivity render differs across identical runs")
	}
}
