package skeleton

import (
	"errors"
	"math"
	"math/bits"
	"strings"
	"testing"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/signature"
	"perfskel/internal/trace"
)

var freeCfg = mpi.Config{CallOverhead: -1, ReduceCostPerByte: -1, SelfLatency: -1}

// traceAndSign runs app on a dedicated testbed and compresses the trace.
func traceAndSign(t *testing.T, nranks int, q float64, app mpi.App) *signature.Signature {
	t.Helper()
	cl := cluster.Build(cluster.Testbed(nranks), cluster.Dedicated())
	rec := trace.NewRecorder(nranks)
	dur, err := mpi.Run(cl, nranks, freeCfg, rec, app)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := signature.Build(rec.Finish(dur), signature.Options{TargetRatio: q})
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// iterApp is a 100-iteration SPMD program: compute + exchange + allreduce.
func iterApp(c *mpi.Comm) {
	peer := 1 - c.Rank()
	for i := 0; i < 100; i++ {
		c.Compute(0.02)
		c.Sendrecv(peer, 50000, peer, 1)
		c.Allreduce(8)
	}
}

func TestLoopCountDividedByK(t *testing.T) {
	sig := traceAndSign(t, 2, 5, iterApp)
	p, err := Build(sig, 10)
	if err != nil {
		t.Fatal(err)
	}
	var found *LoopNode
	for _, n := range p.PerRank[0] {
		if l, ok := n.(LoopNode); ok && l.Count == 10 {
			found = &l
		}
	}
	if found == nil {
		t.Fatalf("no loop with count 100/10=10 in skeleton: %s", p)
	}
}

func TestExpectedTimeScalesByK(t *testing.T) {
	sig := traceAndSign(t, 2, 5, iterApp)
	for _, k := range []int{2, 5, 10, 50} {
		p, err := Build(sig, k)
		if err != nil {
			t.Fatal(err)
		}
		want := sig.AppTime / float64(k)
		got := p.ExpectedTime(0)
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("K=%d: expected time %v, want ~%v", k, got, want)
		}
	}
}

func TestRemainderUnrolledAndScaled(t *testing.T) {
	// A 105-iteration loop with K=10 becomes a 10-iteration loop plus
	// remainder content representing 0.5 extra iterations.
	a := &signature.Cluster{ID: 0, Op: mpi.OpCompute, Peer: mpi.None, Peer2: mpi.None, Duration: 1.0, Count: 105}
	loop := signature.NewLoop(105, []signature.Node{signature.Leaf{C: a}})
	sig := &signature.Signature{
		NRanks: 1, AppTime: 105,
		PerRank:  [][]signature.Node{{loop}},
		Clusters: []*signature.Cluster{a},
	}
	p, err := Build(sig, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := 10.5 // 10 full iterations + 5 unrolled scaled by 1/10
	if got := p.ExpectedTime(0); math.Abs(got-want) > 1e-9 {
		t.Errorf("expected time = %v, want %v", got, want)
	}
	if l, ok := p.PerRank[0][0].(LoopNode); !ok || l.Count != 10 {
		t.Errorf("first node = %v, want loop x10", p.PerRank[0][0])
	}
}

func TestGroupOfKIdenticalOpsCollapse(t *testing.T) {
	// 20 identical unreduced sends with K=5 collapse to 4 unscaled
	// occurrences (each standing for its group of 5).
	s := &signature.Cluster{ID: 0, Op: mpi.OpSend, Peer: 1, Bytes: 1000, Duration: 0.001, Count: 20}
	var seq []signature.Node
	for i := 0; i < 20; i++ {
		seq = append(seq, signature.Leaf{C: s})
	}
	// Prevent loop folding from having happened: build signature directly.
	sig := &signature.Signature{NRanks: 1, AppTime: 0.02, PerRank: [][]signature.Node{seq},
		Clusters: []*signature.Cluster{s}}
	p, err := Build(sig, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Ops(0); got != 4 {
		t.Errorf("ops = %d, want 4", got)
	}
	for _, n := range p.PerRank[0] {
		if o, ok := n.(OpNode); ok && o.Op.Bytes != 1000 {
			t.Errorf("grouped op scaled: %v, want unscaled 1000 bytes", o)
		}
	}
}

func TestLeftoverOpsScaledByK(t *testing.T) {
	// 3 identical ops with K=10: all leftovers, bytes scaled to 1/10.
	s := &signature.Cluster{ID: 0, Op: mpi.OpSend, Peer: 1, Bytes: 1000, Duration: 0.001, Count: 3}
	seq := []signature.Node{signature.Leaf{C: s}, signature.Leaf{C: s}, signature.Leaf{C: s}}
	sig := &signature.Signature{NRanks: 1, AppTime: 0.003, PerRank: [][]signature.Node{seq},
		Clusters: []*signature.Cluster{s}}
	p, err := Build(sig, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Ops(0); got != 3 {
		t.Fatalf("ops = %d, want 3 leftovers", got)
	}
	for _, n := range p.PerRank[0] {
		if o := n.(OpNode); o.Op.Bytes != 100 {
			t.Errorf("leftover bytes = %d, want 100", o.Op.Bytes)
		}
	}
}

func TestScaleOpNeverZeroesBytes(t *testing.T) {
	op := scaleOp(Op{Kind: mpi.OpSend, Bytes: 3}, 10)
	if op.Bytes != 1 {
		t.Errorf("bytes = %d, want floor of 1", op.Bytes)
	}
}

func TestBuildRejectsBadK(t *testing.T) {
	sig := traceAndSign(t, 2, 5, iterApp)
	if _, err := Build(sig, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("K=0: got %v, want ErrBadK", err)
	}
}

func TestMinGoodTimeSimpleLoop(t *testing.T) {
	sig := traceAndSign(t, 2, 5, iterApp)
	// Dominant loop has 100 iterations: min good time = AppTime/100.
	want := sig.AppTime / 100
	got := MinGoodTime(sig, DefaultCoverage)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("MinGoodTime = %v, want ~%v", got, want)
	}
}

func TestMinGoodTimeNestedLoop(t *testing.T) {
	// Outer 10 x inner 20 iterations, inner body dominates: P = 200.
	sig := traceAndSign(t, 2, 5, func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		for i := 0; i < 10; i++ {
			for j := 0; j < 20; j++ {
				c.Compute(0.01)
				c.Sendrecv(peer, 10000, peer, 1)
			}
			c.Allreduce(8)
		}
	})
	want := sig.AppTime / 200
	got := MinGoodTime(sig, DefaultCoverage)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("MinGoodTime = %v, want ~%v (nested P=200)", got, want)
	}
}

func TestMinGoodTimeNoLoops(t *testing.T) {
	// No cyclic structure: the bound is the full app time.
	c1 := &signature.Cluster{ID: 0, Op: mpi.OpCompute, Duration: 1, Count: 1}
	c2 := &signature.Cluster{ID: 1, Op: mpi.OpBarrier, Duration: 0.1, Count: 1}
	sig := &signature.Signature{NRanks: 1, AppTime: 1.1,
		PerRank:  [][]signature.Node{{signature.Leaf{C: c1}, signature.Leaf{C: c2}}},
		Clusters: []*signature.Cluster{c1, c2}}
	if got := MinGoodTime(sig, DefaultCoverage); got != 1.1 {
		t.Errorf("MinGoodTime = %v, want full app time", got)
	}
}

func TestGoodFlagSetOnBuild(t *testing.T) {
	sig := traceAndSign(t, 2, 5, iterApp)
	big, err := Build(sig, 10) // keeps 10 iterations: good
	if err != nil {
		t.Fatal(err)
	}
	if !big.Good {
		t.Errorf("K=10 skeleton flagged not good: min %v target %v", big.MinGoodTime, big.TargetTime)
	}
	tiny, err := Build(sig, 1000) // cannot keep one iteration
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Good {
		t.Errorf("K=1000 skeleton flagged good: min %v target %v", tiny.MinGoodTime, tiny.TargetTime)
	}
}

func TestSkeletonRunsAtTargetTime(t *testing.T) {
	// The headline property: the skeleton's dedicated execution time is
	// about AppTime/K.
	sig := traceAndSign(t, 2, 5, iterApp)
	p, err := Build(sig, 10)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.Build(cluster.Testbed(2), cluster.Dedicated())
	dur, err := Run(p, cl, freeCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sig.AppTime / 10
	if math.Abs(dur-want)/want > 0.1 {
		t.Errorf("skeleton ran %v, want ~%v", dur, want)
	}
}

func TestSkeletonTracksApplicationSlowdown(t *testing.T) {
	// Under CPU contention the skeleton must slow down by the same factor
	// as the application — the defining property of a performance
	// skeleton.
	app := iterApp
	sig := traceAndSign(t, 2, 5, app)
	p, err := Build(sig, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []cluster.Scenario{cluster.CPUAllNodes(2), cluster.CPUOneNode()} {
		clApp := cluster.Build(cluster.Testbed(2), sc)
		appDur, err := mpi.Run(clApp, 2, freeCfg, nil, app)
		if err != nil {
			t.Fatal(err)
		}
		clSkel := cluster.Build(cluster.Testbed(2), sc)
		skelDur, err := Run(p, clSkel, freeCfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		clSkelDed := cluster.Build(cluster.Testbed(2), cluster.Dedicated())
		skelDed, err := Run(p, clSkelDed, freeCfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		appSlow := appDur / sig.AppTime
		skelSlow := skelDur / skelDed
		if math.Abs(appSlow-skelSlow)/appSlow > 0.1 {
			t.Errorf("%s: app slowdown %.3f, skeleton slowdown %.3f", sc.Name, appSlow, skelSlow)
		}
	}
}

func TestExecutorHandlesAllOps(t *testing.T) {
	// A handcrafted program touching every op kind runs to completion.
	mk := func(rank int) []Node {
		peer := 1 - rank
		return []Node{
			OpNode{Op: Op{Kind: mpi.OpCompute, Work: 0.001}},
			OpNode{Op: Op{Kind: mpi.OpIsend, Peer: peer, Tag: 1, Bytes: 100}},
			OpNode{Op: Op{Kind: mpi.OpIrecv, Peer: peer, Tag: 1}},
			OpNode{Op: Op{Kind: mpi.OpWait, Sub: mpi.OpIrecv}},
			OpNode{Op: Op{Kind: mpi.OpWait, Sub: mpi.OpIsend}},
			OpNode{Op: Op{Kind: mpi.OpSendrecv, Peer: peer, Peer2: peer, Tag: 2, Bytes: 200, Byte2: 200}},
			OpNode{Op: Op{Kind: mpi.OpBarrier}},
			OpNode{Op: Op{Kind: mpi.OpBcast, Peer: 0, Bytes: 64}},
			OpNode{Op: Op{Kind: mpi.OpReduce, Peer: 0, Bytes: 64}},
			OpNode{Op: Op{Kind: mpi.OpAllreduce, Bytes: 8}},
			OpNode{Op: Op{Kind: mpi.OpAlltoall, Bytes: 1000}},
			OpNode{Op: Op{Kind: mpi.OpAllgather, Bytes: 500}},
			OpNode{Op: Op{Kind: mpi.OpGather, Peer: 0, Bytes: 100}},
			OpNode{Op: Op{Kind: mpi.OpScatter, Peer: 0, Bytes: 100}},
			LoopNode{Count: 3, Body: []Node{
				OpNode{Op: Op{Kind: mpi.OpCompute, Work: 0.0001}},
				OpNode{Op: Op{Kind: mpi.OpSend, Peer: peer, Tag: 3, Bytes: 10}},
				OpNode{Op: Op{Kind: mpi.OpRecv, Peer: peer, Tag: 3}},
			}},
			// An Isend left outstanding: drain must clean it up.
			OpNode{Op: Op{Kind: mpi.OpIrecv, Peer: peer, Tag: 4}},
			OpNode{Op: Op{Kind: mpi.OpIsend, Peer: peer, Tag: 4, Bytes: 10}},
		}
	}
	p := &Program{NRanks: 2, K: 1, PerRank: [][]Node{mk(0), mk(1)}}
	cl := cluster.Build(cluster.Testbed(2), cluster.Dedicated())
	if _, err := Run(p, cl, freeCfg, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWaitWithNothingOutstandingIsNoop(t *testing.T) {
	p := &Program{NRanks: 1, K: 1, PerRank: [][]Node{{
		OpNode{Op: Op{Kind: mpi.OpWait, Sub: mpi.OpIrecv}},
		OpNode{Op: Op{Kind: mpi.OpWaitall}},
		OpNode{Op: Op{Kind: mpi.OpCompute, Work: 0.001}},
	}}}
	cl := cluster.Build(cluster.Testbed(1), cluster.Dedicated())
	if _, err := Run(p, cl, freeCfg, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProgramOpsAndString(t *testing.T) {
	sig := traceAndSign(t, 2, 5, iterApp)
	p, err := Build(sig, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ops(0) == 0 || p.Ops(1) == 0 {
		t.Error("empty op counts")
	}
	s := p.String()
	for _, want := range []string{"K=10", "rank 0:", "rank 1:"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q", want)
		}
	}
}

func TestMinGoodTimeCoverageParameter(t *testing.T) {
	// With an unsatisfiable coverage requirement nothing qualifies and the
	// bound falls back to the full application time.
	sig := traceAndSign(t, 2, 5, iterApp)
	loose := MinGoodTime(sig, 0.1)
	strict := MinGoodTime(sig, 1.5)
	if loose >= strict {
		t.Errorf("loose coverage bound %v not below strict %v", loose, strict)
	}
	if strict != sig.AppTime {
		t.Errorf("unreachable coverage bound = %v, want app time %v", strict, sig.AppTime)
	}
}

func TestBuildFromTraceMeetsTarget(t *testing.T) {
	cl := cluster.Build(cluster.Testbed(2), cluster.Dedicated())
	rec := trace.NewRecorder(2)
	dur, err := mpi.Run(cl, 2, freeCfg, rec, iterApp)
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Finish(dur)
	prog, sig, err := BuildFromTrace(tr, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sig.TargetMet {
		t.Errorf("Q=5 not met: ratio %v", sig.Ratio)
	}
	if err := prog.Consistent(); err != nil {
		t.Errorf("built skeleton inconsistent: %v", err)
	}
	if _, _, err := BuildFromTrace(tr, 0, Options{}); !errors.Is(err, ErrBadK) {
		t.Errorf("K=0: got %v, want ErrBadK", err)
	}
}

func TestConsistentDetectsMismatches(t *testing.T) {
	op := func(kind mpi.Op, peer, tag int) Node {
		return OpNode{Op: Op{Kind: kind, Peer: peer, Tag: tag, Bytes: 8}}
	}
	loop := func(count int, body ...Node) Node { return LoopNode{Count: count, Body: body} }
	for _, tc := range []struct {
		name    string
		perRank [][]Node
		want    string // "" for consistent
	}{
		{"collective count differs", [][]Node{
			{op(mpi.OpAllreduce, mpi.None, 0)},
			{},
		}, "skeleton: rank 1 performs 0 collective calls, rank 0 1"},
		{"collective order differs", [][]Node{
			{op(mpi.OpAllreduce, mpi.None, 0), op(mpi.OpBarrier, mpi.None, 0)},
			{op(mpi.OpBarrier, mpi.None, 0), op(mpi.OpAllreduce, mpi.None, 0)},
		}, "skeleton: collective call 0 differs: rank 0 MPI_Allreduce(root=-2), rank 1 MPI_Barrier(root=-2)"},
		{"collective root differs", [][]Node{
			{op(mpi.OpBcast, 0, 0)},
			{op(mpi.OpBcast, 1, 0)},
		}, "skeleton: collective call 0 differs: rank 0 MPI_Bcast(root=0), rank 1 MPI_Bcast(root=1)"},
		{"rootless collective ignores peer", [][]Node{
			{op(mpi.OpAllreduce, 0, 0)},
			{op(mpi.OpAllreduce, 1, 0)},
		}, ""},
		{"sends exceed receives", [][]Node{
			{loop(3, op(mpi.OpSend, 1, 1))},
			{loop(2, op(mpi.OpRecv, 0, 1))},
		}, "skeleton: 3 sends 0->1 tag 1 but 2 receives"},
		{"receives exceed sends", [][]Node{
			{},
			{loop(2, op(mpi.OpIrecv, 0, 1))},
		}, "skeleton: 2 receives 0->1 tag 1 but 0 sends"},
		{"unmatched send", [][]Node{
			{op(mpi.OpSend, 1, 1)},
			{},
		}, "skeleton: 1 sends 0->1 tag 1 but 0 receives"},
		{"wildcard receive skips point-to-point", [][]Node{
			{loop(3, op(mpi.OpSend, 1, 1))},
			{op(mpi.OpRecv, 0, mpi.AnyTag)},
		}, ""},
		{"matched pair in loops", [][]Node{
			{loop(3, op(mpi.OpSend, 1, 1))},
			{loop(3, op(mpi.OpRecv, 0, 1))},
		}, ""},
	} {
		p := &Program{NRanks: 2, K: 1, PerRank: tc.perRank}
		err := p.Consistent()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: consistent program rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: mismatch not detected", tc.name)
		case tc.want != "" && err.Error() != tc.want:
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}
}

// unroll expands every loop of a signature sequence into its iterations.
func unroll(seq []signature.Node) []signature.Node {
	var out []signature.Node
	for _, nd := range seq {
		switch x := nd.(type) {
		case signature.Leaf:
			out = append(out, x)
		case *signature.Loop:
			for range x.Count {
				out = append(out, unroll(x.Body)...)
			}
		}
	}
	return out
}

// TestBuildAllocsPerDistinctOp: building a skeleton boxes each distinct
// operation once, not each occurrence. The signature is CG class S on 16
// ranks at the ladder's top threshold with every loop unrolled (ratio
// 1.0), so at K = 2 every
// occurrence is either a group representative, absorbed or a scaled
// leftover, and the program has no loops. The allocations stay within a
// few per distinct operation plus a logarithmic number per rank for the
// growing program slices.
func TestBuildAllocsPerDistinctOp(t *testing.T) {
	const ranks = 16
	l, err := signature.NewLadder(nasTrace(t, "CG", ranks))
	if err != nil {
		t.Fatal(err)
	}
	folded := l.At(l.Len() - 1)
	sig := *folded
	sig.PerRank = make([][]signature.Node, ranks)
	ops := 0
	for r, seq := range folded.PerRank {
		sig.PerRank[r] = unroll(seq)
		ops += len(sig.PerRank[r])
	}
	if sig.Ratio = float64(sig.TraceEvents) / float64(sig.Len()); sig.Ratio != 1 {
		t.Fatalf("unrolled signature has ratio %v, want 1", sig.Ratio)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(&sig, 2); err != nil {
			t.Fatal(err)
		}
	})
	bound := 4*len(sig.Clusters) + ranks*(4+bits.Len(uint(ops)))
	t.Logf("%d ops, %d clusters: %.0f allocs, bound %d", ops, len(sig.Clusters), allocs, bound)
	if allocs > float64(bound) {
		t.Errorf("Build made %.0f allocations for %d operations of %d clusters, want at most %d", allocs, ops, len(sig.Clusters), bound)
	}
}
