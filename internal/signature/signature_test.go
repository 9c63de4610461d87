package signature

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/trace"
)

var freeCfg = mpi.Config{CallOverhead: -1, ReduceCostPerByte: -1, SelfLatency: -1}

// expand flattens a folded sequence back to its cluster sequence.
func expand(seq []Node) []*Cluster {
	var out []*Cluster
	for _, n := range seq {
		switch x := n.(type) {
		case Leaf:
			out = append(out, x.C)
		case *Loop:
			body := expand(x.Body)
			for i := 0; i < x.Count; i++ {
				out = append(out, body...)
			}
		}
	}
	return out
}

func clustersEqual(a, b []*Cluster) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCompressPaperExample(t *testing.T) {
	// a b b g b b g b b g k a a  ->  a [(b)2 g]3 k (a)2
	a := &Cluster{ID: 0}
	b := &Cluster{ID: 1}
	g := &Cluster{ID: 2}
	k := &Cluster{ID: 3}
	seq := []*Cluster{a, b, b, g, b, b, g, b, b, g, k, a, a}
	out := compress(seq, 0)
	if len(out) != 4 {
		t.Fatalf("compressed to %d nodes: %v", len(out), out)
	}
	if l, ok := out[0].(Leaf); !ok || l.C != a {
		t.Errorf("node 0 = %v, want leaf a", out[0])
	}
	outer, ok := out[1].(*Loop)
	if !ok || outer.Count != 3 || len(outer.Body) != 2 {
		t.Fatalf("node 1 = %v, want loop x3 with 2-node body", out[1])
	}
	inner, ok := outer.Body[0].(*Loop)
	if !ok || inner.Count != 2 {
		t.Errorf("inner = %v, want (b)x2", outer.Body[0])
	}
	if l, ok := out[2].(Leaf); !ok || l.C != k {
		t.Errorf("node 2 = %v, want leaf k", out[2])
	}
	tail, ok := out[3].(*Loop)
	if !ok || tail.Count != 2 {
		t.Errorf("node 3 = %v, want (a)x2", out[3])
	}
	if !clustersEqual(expand(out), seq) {
		t.Error("expansion does not reproduce input")
	}
}

func TestCompressNoRepeats(t *testing.T) {
	cs := make([]*Cluster, 5)
	for i := range cs {
		cs[i] = &Cluster{ID: i}
	}
	out := compress(cs, 0)
	if len(out) != 5 {
		t.Errorf("compressed to %d nodes, want 5 leaves", len(out))
	}
}

func TestCompressLongUniformRun(t *testing.T) {
	a := &Cluster{ID: 0}
	seq := make([]*Cluster, 1000)
	for i := range seq {
		seq[i] = a
	}
	out := compress(seq, 0)
	if len(out) != 1 {
		t.Fatalf("compressed to %d nodes, want 1 loop", len(out))
	}
	if !clustersEqual(expand(out), seq) {
		t.Error("expansion mismatch")
	}
	if seqLeaves(out) != 1 {
		t.Errorf("leaves = %d, want 1", seqLeaves(out))
	}
}

func TestCompressDeepNesting(t *testing.T) {
	// ((a b b)^4 c)^5: 65 symbols -> 4 leaves.
	a, b, c := &Cluster{ID: 0}, &Cluster{ID: 1}, &Cluster{ID: 2}
	var seq []*Cluster
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			seq = append(seq, a, b, b)
		}
		seq = append(seq, c)
	}
	out := compress(seq, 0)
	if !clustersEqual(expand(out), seq) {
		t.Fatal("expansion mismatch")
	}
	if got := seqLeaves(out); got != 3 {
		t.Errorf("leaves = %d, want 3 (a, b, c each counted once)", got)
	}
}

func TestCompressionIsLosslessProperty(t *testing.T) {
	// Property: for arbitrary symbol sequences, expanding the compressed
	// form reproduces the input exactly.
	alphabet := []*Cluster{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	f := func(pattern []byte, repeats uint8) bool {
		if len(pattern) == 0 {
			return true
		}
		if len(pattern) > 30 {
			pattern = pattern[:30]
		}
		n := int(repeats%5) + 1
		var seq []*Cluster
		for i := 0; i < n; i++ {
			for _, p := range pattern {
				seq = append(seq, alphabet[int(p)%len(alphabet)])
			}
		}
		return clustersEqual(expand(compress(seq, 0)), seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompressionRandomNoiseLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := []*Cluster{{ID: 0}, {ID: 1}, {ID: 2}}
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200) + 1
		seq := make([]*Cluster, n)
		for i := range seq {
			seq[i] = alphabet[rng.Intn(3)]
		}
		out := compress(seq, 0)
		if !clustersEqual(expand(out), seq) {
			t.Fatalf("trial %d: expansion mismatch for %v", trial, seq)
		}
	}
}

func TestLoopTotalTime(t *testing.T) {
	a := &Cluster{ID: 0, Duration: 0.5}
	b := &Cluster{ID: 1, Duration: 0.25}
	l := NewLoop(4, []Node{Leaf{a}, NewLoop(2, []Node{Leaf{b}})})
	want := 4 * (0.5 + 2*0.25)
	if got := l.TotalTime(); math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalTime = %v, want %v", got, want)
	}
	if got := l.Leaves(); got != 2 {
		t.Errorf("Leaves = %d, want 2", got)
	}
}

// synthTrace builds a single-rank trace from (op, peer, bytes, duration)
// rows laid out back to back in time.
func synthTrace(rows []trace.Event) *trace.Trace {
	t := 0.0
	evs := make([]trace.Event, len(rows))
	for i, r := range rows {
		r.Start = t
		t += r.End // End field holds the intended duration on input
		r.End = t
		evs[i] = r
	}
	return &trace.Trace{NRanks: 1, AppTime: t, Events: [][]trace.Event{evs}}
}

func TestClusteringAveragesSimilarSends(t *testing.T) {
	// The paper's example: Send(3, 2000) and Send(3, 1800) cluster into
	// Send(3, 1900) at a threshold allowing a 200-byte difference.
	tr := synthTrace([]trace.Event{
		{Op: mpi.OpSend, Peer: 3, Bytes: 2000, End: 0.001},
		{Op: mpi.OpSend, Peer: 3, Bytes: 1800, End: 0.001},
		{Op: mpi.OpSend, Peer: 3, Bytes: 90000, End: 0.001}, // stretches the range
	})
	// Range is 90000-1800; 200/88200 ~ 0.0023, so threshold 0.01 merges
	// the close pair but not the big one.
	s, err := Build(tr, Options{InitialThreshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2: %v", len(s.Clusters), s.Clusters)
	}
	var merged *Cluster
	for _, c := range s.Clusters {
		if c.Count == 2 {
			merged = c
		}
	}
	if merged == nil || math.Abs(merged.Bytes-1900) > 1e-9 {
		t.Errorf("merged cluster = %+v, want average 1900 bytes", merged)
	}
}

func TestThresholdZeroKeepsDistinctSizes(t *testing.T) {
	tr := synthTrace([]trace.Event{
		{Op: mpi.OpSend, Peer: 3, Bytes: 2000, End: 0.001},
		{Op: mpi.OpSend, Peer: 3, Bytes: 1800, End: 0.001},
	})
	s, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Clusters) != 2 {
		t.Errorf("clusters = %d, want 2 at threshold 0", len(s.Clusters))
	}
}

func TestDistinctOpsAndPeersNeverCluster(t *testing.T) {
	tr := synthTrace([]trace.Event{
		{Op: mpi.OpSend, Peer: 1, Bytes: 100, End: 0.001},
		{Op: mpi.OpIsend, Peer: 1, Bytes: 100, End: 0.001},
		{Op: mpi.OpSend, Peer: 2, Bytes: 100, End: 0.001},
		{Op: mpi.OpSend, Peer: 1, Tag: 9, Bytes: 100, End: 0.001},
	})
	s, err := Build(tr, Options{InitialThreshold: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Clusters) != 4 {
		t.Errorf("clusters = %d, want 4 (op/peer/tag are hard keys)", len(s.Clusters))
	}
}

func TestIterativeThresholdSearchReachesTarget(t *testing.T) {
	// 50 iterations whose compute durations jitter slightly: at threshold
	// 0 nothing clusters (each duration distinct), so loop detection
	// fails; raising the threshold merges them and the loop folds.
	rows := make([]trace.Event, 0, 100)
	for i := 0; i < 50; i++ {
		rows = append(rows,
			trace.Event{Op: mpi.OpCompute, Peer: mpi.None, End: 0.010 + 0.0005*float64(i%7)},
			trace.Event{Op: mpi.OpAllreduce, Peer: mpi.None, Bytes: 8, End: 0.0001},
		)
	}
	tr := synthTrace(rows)
	s, err := Build(tr, Options{TargetRatio: 25})
	if err != nil {
		t.Fatal(err)
	}
	if !s.TargetMet {
		t.Fatalf("target not met: ratio %.1f threshold %.2f", s.Ratio, s.Threshold)
	}
	if s.Ratio < 25 {
		t.Errorf("ratio = %.1f, want >= 25", s.Ratio)
	}
	if s.Threshold == 0 {
		t.Error("threshold stayed 0; search did not iterate")
	}
}

func TestUnreachableTargetReturnsBest(t *testing.T) {
	// Two completely different ops cannot compress regardless of
	// threshold.
	tr := synthTrace([]trace.Event{
		{Op: mpi.OpSend, Peer: 1, Bytes: 10, End: 0.001},
		{Op: mpi.OpBarrier, Peer: mpi.None, End: 0.001},
	})
	s, err := Build(tr, Options{TargetRatio: 100})
	if err != nil {
		t.Fatal(err)
	}
	if s.TargetMet {
		t.Error("impossible target reported as met")
	}
	if s.Ratio > 1.01 {
		t.Errorf("ratio = %v for incompressible trace", s.Ratio)
	}
}

func TestThresholdsMatchReferenceSchedule(t *testing.T) {
	// The search loop as Build and skeleton.BuildFromTrace each wrote it
	// before the schedule was shared: Thresholds must visit exactly these
	// values, bit for bit.
	reference := func(start float64) []float64 {
		var out []float64
		t, step := start, 0.005
		for {
			out = append(out, t)
			if t >= 1.0 {
				return out
			}
			t += step
			step *= 1.3
			if t > 1.0 {
				t = 1.0
			}
		}
	}
	for _, start := range []float64{0, 0.01, 0.05, 0.2, 1} {
		got, want := Thresholds(start), reference(start)
		if len(got) != len(want) {
			t.Errorf("start %v: %d thresholds, want %d", start, len(got), len(want))
			continue
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("start %v: threshold %d = %v, want %v", start, i, got[i], want[i])
			}
		}
	}
	if n := len(Thresholds(0)); n != 17 {
		t.Errorf("len(Thresholds(0)) = %d, want 17", n)
	}
}

func TestBuildRejectsInitialThresholdOutsideUnitRange(t *testing.T) {
	tr := synthTrace([]trace.Event{
		{Op: mpi.OpSend, Peer: 1, Bytes: 10, End: 0.001},
		{Op: mpi.OpBarrier, Peer: mpi.None, End: 0.001},
	})
	// NaN used to pass the range check and then never reach the end of
	// the schedule, so Build did not return.
	for _, thr := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.5} {
		if _, err := Build(tr, Options{TargetRatio: 100, InitialThreshold: thr}); err == nil {
			t.Errorf("initial threshold %v accepted", thr)
		}
	}
}

func TestSignatureFromRealTracedRun(t *testing.T) {
	// A 20-iteration SPMD program compresses to a compact per-rank loop
	// whose represented time matches the app time.
	cl := cluster.Build(cluster.Testbed(2), cluster.Dedicated())
	rec := trace.NewRecorder(2)
	dur, err := mpi.Run(cl, 2, freeCfg, rec, func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		for i := 0; i < 20; i++ {
			c.Compute(0.01)
			c.Sendrecv(peer, 10000, peer, 1)
			c.Allreduce(8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Finish(dur)
	s, err := Build(tr, Options{TargetRatio: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !s.TargetMet {
		t.Fatalf("target not met: %s", s)
	}
	for r := 0; r < 2; r++ {
		if got, want := s.RankTime(r), dur; math.Abs(got-want)/want > 0.02 {
			t.Errorf("rank %d represented time %v, app time %v", r, got, want)
		}
		// The 20 iterations must appear as a loop of count 20 somewhere.
		found := false
		var scan func(seq []Node)
		scan = func(seq []Node) {
			for _, n := range seq {
				if l, ok := n.(*Loop); ok {
					if l.Count == 20 {
						found = true
					}
					scan(l.Body)
				}
			}
		}
		scan(s.PerRank[r])
		if !found {
			t.Errorf("rank %d: no loop with count 20 in %s", r, s)
		}
	}
}

func TestBuildRejectsEmptyTrace(t *testing.T) {
	tr := &trace.Trace{NRanks: 1, AppTime: 0, Events: [][]trace.Event{{}}}
	if _, err := Build(tr, Options{}); err == nil {
		t.Error("want error for empty trace")
	}
}

func TestSendrecvByteDissimilarity(t *testing.T) {
	// Sendrecv events differing only in receive size must not merge at
	// threshold 0.
	tr := synthTrace([]trace.Event{
		{Op: mpi.OpSendrecv, Peer: 1, Peer2: 1, Bytes: 100, Byte2: 100, End: 0.001},
		{Op: mpi.OpSendrecv, Peer: 1, Peer2: 1, Bytes: 100, Byte2: 90000, End: 0.001},
	})
	s, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Clusters) != 2 {
		t.Errorf("clusters = %d, want 2", len(s.Clusters))
	}
}

func TestMaxBodyCapPreventsLargeFolds(t *testing.T) {
	// A repeating body longer than MaxBody must not fold.
	var seq []*Cluster
	body := make([]*Cluster, 10)
	for i := range body {
		body[i] = &Cluster{ID: i}
	}
	for rep := 0; rep < 4; rep++ {
		seq = append(seq, body...)
	}
	folded := compress(seq, 64)
	if len(folded) != 1 {
		t.Errorf("body of 10 should fold under cap 64: %d nodes", len(folded))
	}
	unfolded := compress(seq, 5)
	if len(unfolded) != len(seq) {
		t.Errorf("body of 10 folded under cap 5: %d nodes", len(unfolded))
	}
}

func TestSignatureLenAndRatioAgree(t *testing.T) {
	tr := synthTrace([]trace.Event{
		{Op: mpi.OpSend, Peer: 1, Bytes: 10, End: 0.001},
		{Op: mpi.OpSend, Peer: 1, Bytes: 10, End: 0.001},
		{Op: mpi.OpSend, Peer: 1, Bytes: 10, End: 0.001},
		{Op: mpi.OpSend, Peer: 1, Bytes: 10, End: 0.001},
	})
	s, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("leaves = %d, want 1 (single folded loop)", s.Len())
	}
	if s.Ratio != 4 {
		t.Errorf("ratio = %v, want 4", s.Ratio)
	}
	if s.TraceEvents != 4 {
		t.Errorf("trace events = %d", s.TraceEvents)
	}
}

func TestConsistentAcceptsSymmetricSignature(t *testing.T) {
	tr := func() *trace.Trace {
		cl := cluster.Build(cluster.Testbed(2), cluster.Dedicated())
		rec := trace.NewRecorder(2)
		dur, err := mpi.Run(cl, 2, freeCfg, rec, func(c *mpi.Comm) {
			peer := 1 - c.Rank()
			for i := 0; i < 10; i++ {
				c.Compute(0.01)
				c.Sendrecv(peer, 1000, peer, 1)
				c.Allreduce(8)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return rec.Finish(dur)
	}()
	s, err := Build(tr, Options{TargetRatio: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Consistent(); err != nil {
		t.Errorf("symmetric signature inconsistent: %v", err)
	}
}

func TestConsistentRejectsCollectiveMismatch(t *testing.T) {
	ar := &Cluster{ID: 0, Op: mpi.OpAllreduce, Peer: mpi.None, Bytes: 8}
	bar := &Cluster{ID: 1, Op: mpi.OpBarrier, Peer: mpi.None}
	send := &Cluster{ID: 2, Op: mpi.OpSend, Peer: 1, Tag: 1, Bytes: 8}
	recv := &Cluster{ID: 3, Op: mpi.OpRecv, Peer: 0, Tag: 1, Bytes: 8}
	wild := &Cluster{ID: 4, Op: mpi.OpRecv, Peer: mpi.AnySource, Tag: 1, Bytes: 8}
	send2 := &Cluster{ID: 5, Op: mpi.OpSend, Peer: 0, Tag: 2, Bytes: 8}
	clusters := []*Cluster{ar, bar, send, recv, wild, send2}
	for _, tc := range []struct {
		name    string
		perRank [][]Node
		want    string // "" for consistent
	}{
		{"collective order differs", [][]Node{
			{Leaf{C: ar}, Leaf{C: bar}},
			{Leaf{C: bar}, Leaf{C: ar}},
		}, "signature: collective call 0 differs: rank 0 MPI_Allreduce(peer=-2,bytes=8), rank 1 MPI_Barrier(peer=-2,bytes=0)"},
		{"collective count differs", [][]Node{
			{NewLoop(3, []Node{Leaf{C: ar}})},
			{NewLoop(2, []Node{Leaf{C: ar}})},
		}, "signature: rank 1 performs 2 collective calls, rank 0 3"},
		{"sends exceed receives", [][]Node{
			{NewLoop(3, []Node{Leaf{C: send}})},
			{NewLoop(2, []Node{Leaf{C: recv}})},
		}, "signature: 3 sends 0->1 tag 1 but 2 receives"},
		{"receives exceed sends", [][]Node{
			{},
			{NewLoop(2, []Node{Leaf{C: recv}})},
		}, "signature: 2 receives 0->1 tag 1 but 0 sends"},
		{"first mismatch in key order", [][]Node{
			{Leaf{C: send}},
			{Leaf{C: send2}},
		}, "signature: 1 sends 0->1 tag 1 but 0 receives"},
		{"wildcard receive skips point-to-point", [][]Node{
			{NewLoop(3, []Node{Leaf{C: send}})},
			{Leaf{C: wild}},
		}, ""},
		{"matched pair in loops", [][]Node{
			{NewLoop(3, []Node{Leaf{C: send}, Leaf{C: ar}})},
			{NewLoop(3, []Node{Leaf{C: recv}, Leaf{C: ar}})},
		}, ""},
	} {
		s := &Signature{NRanks: 2, PerRank: tc.perRank, Clusters: clusters}
		err := s.Consistent()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: consistent signature rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: mismatch not detected", tc.name)
		case tc.want != "" && err.Error() != tc.want:
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}
}
