package commgraph_test

import (
	"reflect"
	"strings"
	"testing"

	"perfskel/internal/analysis"
	"perfskel/internal/analysis/commgraph"
	"perfskel/internal/mpi"
)

// testLoader caches one module-wide loader; building it typechecks the
// module and the stdlib from source once.
var testLoader *analysis.Loader

func machine(t *testing.T, src string) *commgraph.Machine {
	t.Helper()
	if testLoader == nil {
		l, err := analysis.NewLoader(".")
		if err != nil {
			t.Fatal(err)
		}
		testLoader = l
	}
	pkg, err := testLoader.LoadSource("prog.go", src)
	if err != nil {
		t.Fatal(err)
	}
	machines := commgraph.Extract(commgraph.Source{Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info})
	if len(machines) != 1 {
		t.Fatalf("extracted %d machines, want 1", len(machines))
	}
	return &machines[0]
}

const header = `package main

import "perfskel"

func main() {
	env := perfskel.NewTestbed(4, perfskel.Dedicated())
	if _, err := env.Run(`

const footer = `); err != nil {
		panic(err)
	}
}
`

// TestNestedLoopsFold is the regression test for outer-loop invariance:
// running the inner loop leaves its (loop-scoped) variable bound in the
// environment, which must not defeat folding of the outer loop.
func TestNestedLoopsFold(t *testing.T) {
	m := machine(t, header+`2, func(c *perfskel.Comm) {
		for i := 0; i < 3; i++ {
			c.Compute(0.001)
			for j := 0; j < 25; j++ {
				c.Allreduce(8)
				_ = j
			}
			_ = i
		}
	}`+footer)
	if len(m.Approx) > 0 {
		t.Fatalf("approximate extraction: %v", m.Approx)
	}
	for r, seq := range m.Ranks {
		if len(seq) != 1 || seq[0].Count != 3 {
			t.Fatalf("rank %d: want one loop node x3, got %d nodes (count %d)", r, len(seq), seq[0].Count)
		}
		body := seq[0].Body
		if len(body) != 2 || body[1].Count != 25 || len(body[1].Body) != 1 {
			t.Fatalf("rank %d: inner loop not folded: outer body has %d nodes", r, len(body))
		}
	}
}

// wildcardRace is the classic wildcard-order bug: rank 0's wildcard
// receive may consume rank 1's message, after which the directed
// Recv(1) can never match and rank 2's message is orphaned. Only one of
// the two interleavings deadlocks, so finding it requires exploring
// both wildcard branches.
const wildcardRace = header + `3, func(c *perfskel.Comm) {
		switch c.Rank() {
		case 0:
			c.Recv(perfskel.AnySource, 7)
			c.Recv(1, 7)
		default:
			c.Send(0, 7, 64)
		}
	}` + footer

func TestWildcardBranchingFindsDeadlock(t *testing.T) {
	m := machine(t, wildcardRace)
	res := commgraph.Match(m, commgraph.Options{})
	if res.Skipped {
		t.Fatalf("match skipped: %v", res.Notes)
	}
	var kinds []commgraph.FindingKind
	for _, f := range res.Findings {
		kinds = append(kinds, f.Kind)
	}
	found := false
	for _, k := range kinds {
		if k == commgraph.DeadlockRecv {
			found = true
		}
	}
	if !found {
		t.Errorf("no DeadlockRecv finding in %v (explored %d states)", kinds, res.Explored)
	}
}

// TestMatchIsDeterministic: matching the same machine must yield
// identical results — state count, findings, messages, and notes.
func TestMatchIsDeterministic(t *testing.T) {
	m := machine(t, wildcardRace)
	a := commgraph.Match(m, commgraph.Options{})
	b := commgraph.Match(m, commgraph.Options{})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two matches of the same machine differ:\n%+v\nvs\n%+v", a, b)
	}
}

// TestStateCapIsNeverSilent: a cap that truncates exploration must be
// visible in the result, both as CapHit and as a human-readable note.
func TestStateCapIsNeverSilent(t *testing.T) {
	m := machine(t, wildcardRace)
	res := commgraph.Match(m, commgraph.Options{MaxStates: 1})
	if !res.CapHit {
		t.Error("MaxStates=1 did not set CapHit")
	}
	if len(res.Notes) == 0 {
		t.Error("hitting the state cap produced no note")
	}
}

// TestEagerSendsDoNotDeadlock: the same head-to-head exchange is legal
// below the eager threshold and a deadlock at rendezvous size; the
// matcher must distinguish the two via Options.Eager.
func TestEagerSendsDoNotDeadlock(t *testing.T) {
	src := header + `2, func(c *perfskel.Comm) {
		c.Send(1-c.Rank(), 3, 1024)
		c.Recv(1-c.Rank(), 3)
	}` + footer
	m := machine(t, src)
	if res := commgraph.Match(m, commgraph.Options{}); len(res.Findings) != 0 {
		t.Errorf("eager-size exchange flagged: %v", res.Findings)
	}
	if res := commgraph.Match(m, commgraph.Options{Eager: 512}); len(res.Findings) == 0 {
		t.Error("rendezvous-size exchange not flagged")
	} else if res.Findings[0].Kind != commgraph.DeadlockSendSend {
		t.Errorf("want DeadlockSendSend, got %v", res.Findings[0].Kind)
	}
}

// pureHelpers are package-level integer helpers the extractor runs
// concretely when a rank program assigns their result.
const pureHelpers = `
func grid2d(n int) (int, int) {
	px := 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			px = f
		}
	}
	return px, n / px
}

func split(n int) (lo, hi int) {
	lo = n / 3
	hi = n - lo
	return
}

func oddSum(n int) int {
	s := 0
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			continue
		}
		if i > n {
			break
		}
		s += i
	}
	return s
}

func clearLow(n int) int {
	n &^= 3
	return n
}

func spin(n int) int {
	for {
		n++
	}
}

func double(c *perfskel.Comm, n int) int {
	c.Barrier()
	return 2 * n
}
`

func pureProgram(body string) string {
	return header + "4, func(c *perfskel.Comm) {\n" + body + "\n}" + footer + pureHelpers
}

// TestPureHelpersRunConcretely pins the concrete helper runner: each
// helper's result must reach the Allreduce byte count as a constant.
func TestPureHelpersRunConcretely(t *testing.T) {
	cases := []struct {
		name, body string
		want       int64
	}{
		{"tuple-factoriser", "px, py := grid2d(3 * c.Size())\nc.Allreduce(int64(100*px + py))", 304},
		{"named-bare-return", "lo, hi := split(10)\nc.Allreduce(int64(100*lo + hi))", 307},
		{"break-continue", "v := oddSum(7)\nc.Allreduce(int64(v))", 16},
		{"and-not-assign", "v := clearLow(15)\nc.Allreduce(int64(v))", 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := machine(t, pureProgram(tc.body))
			if len(m.Approx) > 0 {
				t.Fatalf("approximate extraction: %v", m.Approx)
			}
			for r, seq := range m.Ranks {
				if len(seq) != 1 || seq[0].Op == nil || seq[0].Op.Kind != mpi.OpAllreduce {
					t.Fatalf("rank %d: want a single Allreduce, got %d nodes", r, len(seq))
				}
				if op := seq[0].Op; !op.HasBytes || op.Bytes != tc.want {
					t.Errorf("rank %d: Allreduce bytes = %d (known %v), want %d", r, op.Bytes, op.HasBytes, tc.want)
				}
			}
		})
	}
}

// TestPureHelperBudgetIsNeverSilent: a helper that never terminates
// must stop at the step budget and leave an Approx note.
func TestPureHelperBudgetIsNeverSilent(t *testing.T) {
	m := machine(t, pureProgram("v := spin(1)\n_ = v\nc.Barrier()"))
	found := false
	for _, note := range m.Approx {
		if strings.Contains(note, "step budget") {
			found = true
		}
	}
	if !found {
		t.Errorf("exhausted step budget left no note: %v", m.Approx)
	}
}

// TestPureHelperWithCommIsNotRun: a helper that communicates is
// inlined for its operations, never run concretely, so its result stays
// unknown.
func TestPureHelperWithCommIsNotRun(t *testing.T) {
	m := machine(t, pureProgram("v := double(c, 3)\nc.Allreduce(int64(v))"))
	for r, seq := range m.Ranks {
		if len(seq) != 2 || seq[0].Op == nil || seq[0].Op.Kind != mpi.OpBarrier {
			t.Fatalf("rank %d: want the helper's Barrier then the Allreduce, got %d nodes", r, len(seq))
		}
		if op := seq[1].Op; op == nil || op.Kind != mpi.OpAllreduce || op.HasBytes {
			t.Errorf("rank %d: Allreduce bytes resolved from a communicating helper", r)
		}
	}
}
