package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
)

var freeCfg = mpi.Config{CallOverhead: -1, ReduceCostPerByte: -1, SelfLatency: -1}

// traceApp runs app with a recorder on a dedicated testbed and returns the
// finished trace.
func traceApp(t *testing.T, nranks int, cfg mpi.Config, app mpi.App) *Trace {
	t.Helper()
	cl := cluster.Build(cluster.Testbed(nranks), cluster.Dedicated())
	rec := NewRecorder(nranks)
	dur, err := mpi.Run(cl, nranks, cfg, rec, app)
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Finish(dur)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestComputeInferredFromGaps(t *testing.T) {
	tr := traceApp(t, 2, freeCfg, func(c *mpi.Comm) {
		c.Compute(1.0)
		c.Barrier()
		c.Compute(0.5)
		c.Barrier()
	})
	evs := tr.Events[0]
	// compute, barrier, compute, barrier
	if len(evs) != 4 {
		t.Fatalf("rank 0 has %d events: %v", len(evs), evs)
	}
	if !evs[0].IsCompute() || math.Abs(evs[0].Duration()-1.0) > 1e-9 {
		t.Errorf("event 0 = %v, want 1.0s compute", evs[0])
	}
	if evs[1].Op != mpi.OpBarrier {
		t.Errorf("event 1 = %v, want barrier", evs[1])
	}
	if !evs[2].IsCompute() || math.Abs(evs[2].Duration()-0.5) > 1e-9 {
		t.Errorf("event 2 = %v, want 0.5s compute", evs[2])
	}
}

func TestTrailingComputeRecorded(t *testing.T) {
	tr := traceApp(t, 1, freeCfg, func(c *mpi.Comm) {
		c.Barrier()
		c.Compute(2.0)
	})
	evs := tr.Events[0]
	last := evs[len(evs)-1]
	if !last.IsCompute() || math.Abs(last.Duration()-2.0) > 1e-9 {
		t.Errorf("last event = %v, want trailing 2.0s compute", last)
	}
}

func TestStatsFractions(t *testing.T) {
	// Rank 0 computes 1s then a rendezvous exchange; with symmetric ranks
	// the compute fraction should be high and MPI fraction small but
	// nonzero.
	tr := traceApp(t, 2, freeCfg, func(c *mpi.Comm) {
		c.Compute(1.0)
		peer := 1 - c.Rank()
		sr := c.Isend(peer, 1, 1e6)
		rr := c.Irecv(peer, 1)
		c.Waitall(sr, rr)
	})
	s := tr.Stats()
	if s.ComputeFrac < 0.95 {
		t.Errorf("compute frac = %v, want > 0.95", s.ComputeFrac)
	}
	if s.MPIFrac <= 0 {
		t.Errorf("MPI frac = %v, want > 0", s.MPIFrac)
	}
	if got := s.ComputeFrac + s.MPIFrac; math.Abs(got-1) > 0.01 {
		t.Errorf("fractions sum to %v, want ~1", got)
	}
	if s.OpCounts[mpi.OpIsend] != 2 || s.OpCounts[mpi.OpWaitall] != 2 {
		t.Errorf("op counts = %v", s.OpCounts)
	}
}

func TestMPIBoundTraceFractions(t *testing.T) {
	// A blocked receiver spends its time inside MPI_Recv: MPI fraction
	// must dominate for rank 1.
	tr := traceApp(t, 2, freeCfg, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Compute(1.0)
			c.Send(1, 1, 8)
		} else {
			c.Recv(0, 1)
		}
	})
	var mpiTime float64
	for _, e := range tr.Events[1] {
		if !e.IsCompute() {
			mpiTime += e.Duration()
		}
	}
	if mpiTime < 0.99 {
		t.Errorf("rank 1 MPI time = %v, want ~1.0 (blocked in recv)", mpiTime)
	}
}

func TestEventParamsPreserved(t *testing.T) {
	tr := traceApp(t, 2, freeCfg, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Send(1, 17, 4096)
		} else {
			c.Recv(0, 17)
		}
	})
	var send *Event
	for i, e := range tr.Events[0] {
		if e.Op == mpi.OpSend {
			send = &tr.Events[0][i]
		}
	}
	if send == nil {
		t.Fatal("no send event in rank 0 trace")
	}
	if send.Peer != 1 || send.Tag != 17 || send.Bytes != 4096 {
		t.Errorf("send event = %+v", send)
	}
}

func TestRoundTripSerialisation(t *testing.T) {
	tr := traceApp(t, 2, freeCfg, func(c *mpi.Comm) {
		c.Compute(0.1)
		c.Allreduce(64)
	})
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NRanks != tr.NRanks || got.AppTime != tr.AppTime || got.Len() != tr.Len() {
		t.Errorf("round trip mismatch: %+v vs %+v", got, tr)
	}
	for r := range tr.Events {
		for i := range tr.Events[r] {
			if got.Events[r][i] != tr.Events[r][i] {
				t.Errorf("rank %d event %d: %+v != %+v", r, i, got.Events[r][i], tr.Events[r][i])
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	tr := traceApp(t, 1, freeCfg, func(c *mpi.Comm) {
		c.Compute(0.2)
		c.Barrier()
	})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Errorf("loaded %d events, want %d", got.Len(), tr.Len())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := &Trace{NRanks: 1, AppTime: 1, Events: [][]Event{{
		{Op: mpi.OpCompute, Start: 0.5, End: 0.2},
	}}}
	if err := tr.Validate(); err == nil {
		t.Error("want error for end<start")
	}
	tr = &Trace{NRanks: 2, AppTime: 1, Events: [][]Event{{}}}
	if err := tr.Validate(); err == nil {
		t.Error("want error for rank/stream mismatch")
	}
	tr = &Trace{NRanks: 1, AppTime: 1, Events: [][]Event{{
		{Op: mpi.OpCompute, Start: 0, End: 0.5},
		{Op: mpi.OpCompute, Start: 0.3, End: 0.6},
	}}}
	if err := tr.Validate(); err == nil {
		t.Error("want error for overlapping events")
	}
}

func TestTracingOverheadIsZeroVirtualTime(t *testing.T) {
	// Tracing must not perturb the traced execution (the paper reports
	// <1% overhead; the simulated recorder has exactly zero).
	app := func(c *mpi.Comm) {
		for i := 0; i < 10; i++ {
			c.Compute(0.01)
			c.Allreduce(8)
		}
	}
	cl1 := cluster.Build(cluster.Testbed(2), cluster.Dedicated())
	plain, err := mpi.Run(cl1, 2, freeCfg, nil, app)
	if err != nil {
		t.Fatal(err)
	}
	cl2 := cluster.Build(cluster.Testbed(2), cluster.Dedicated())
	rec := NewRecorder(2)
	traced, err := mpi.Run(cl2, 2, freeCfg, rec, app)
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Errorf("traced run %v != plain run %v", traced, plain)
	}
}

func TestTimelineRendering(t *testing.T) {
	tr := traceApp(t, 2, freeCfg, func(c *mpi.Comm) {
		c.Compute(0.5)
		c.Barrier()
		if c.Rank() == 0 {
			c.Send(1, 1, 100<<20) // 100 MB: a visible MPI stretch
		} else {
			c.Recv(0, 1)
		}
	})
	tl := tr.Timeline(40)
	lines := strings.Split(strings.TrimSpace(tl), "\n")
	if len(lines) != 3 { // header + 2 ranks
		t.Fatalf("timeline has %d lines:\n%s", len(lines), tl)
	}
	for _, ln := range lines[1:] {
		if !strings.Contains(ln, "#") || !strings.Contains(ln, "M") {
			t.Errorf("rank row missing compute or MPI marks: %q", ln)
		}
		if got := len(strings.Split(ln, "|")[1]); got != 40 {
			t.Errorf("row width %d, want 40", got)
		}
	}
	// Compute comes before communication in time.
	row := strings.Split(lines[1], "|")[1]
	if strings.IndexByte(row, '#') > strings.IndexByte(row, 'M') {
		t.Errorf("compute does not precede MPI in %q", row)
	}
}

func TestTimelineEmptyTrace(t *testing.T) {
	tr := &Trace{NRanks: 1, Events: [][]Event{{}}}
	if got := tr.Timeline(10); !strings.Contains(got, "empty") {
		t.Errorf("empty trace timeline = %q", got)
	}
}

func TestSummaryContainsOps(t *testing.T) {
	tr := traceApp(t, 2, freeCfg, func(c *mpi.Comm) {
		c.Compute(0.1)
		c.Allreduce(8)
		c.Barrier()
	})
	s := tr.Summary()
	for _, want := range []string{"MPI_Allreduce", "MPI_Barrier", "compute", "ranks"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestStatsOpTimeSumsToTotals(t *testing.T) {
	tr := traceApp(t, 2, freeCfg, func(c *mpi.Comm) {
		c.Compute(0.2)
		c.Allreduce(64)
		c.Barrier()
		c.Compute(0.1)
	})
	s := tr.Stats()
	var opSum float64
	for _, v := range s.OpTime {
		opSum += v
	}
	if math.Abs(opSum-(s.ComputeTime+s.MPITime)) > 1e-9 {
		t.Errorf("per-op times %v != compute %v + mpi %v", opSum, s.ComputeTime, s.MPITime)
	}
	if s.Events != tr.Len() {
		t.Errorf("stats events %d != trace %d", s.Events, tr.Len())
	}
}

func TestRankDoneBoundsTrailingCompute(t *testing.T) {
	// Rank 1 finishes early; its trailing gap to the app end must not be
	// recorded as computation.
	tr := traceApp(t, 2, freeCfg, func(c *mpi.Comm) {
		c.Barrier()
		if c.Rank() == 0 {
			c.Compute(2.0)
		}
	})
	evs := tr.Events[1]
	last := evs[len(evs)-1]
	if last.IsCompute() && last.Duration() > 0.1 {
		t.Errorf("rank 1 idle time recorded as %v of compute", last.Duration())
	}
	evs0 := tr.Events[0]
	last0 := evs0[len(evs0)-1]
	if !last0.IsCompute() || math.Abs(last0.Duration()-2.0) > 1e-9 {
		t.Errorf("rank 0 trailing compute = %v, want 2.0", last0)
	}
}

func TestValidateRejectsBadNumbers(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		tr   Trace
		want string
	}{
		{"negative bytes", Trace{NRanks: 1, AppTime: 1, Events: [][]Event{{
			{Op: mpi.OpSend, Peer: 0, Bytes: -100, Start: 0, End: 0.1}}}}, "negative byte count"},
		{"negative byte2", Trace{NRanks: 1, AppTime: 1, Events: [][]Event{{
			{Op: mpi.OpSendrecv, Peer: 0, Peer2: 0, Bytes: 8, Byte2: -8, Start: 0, End: 0.1}}}}, "negative byte count"},
		{"NaN start", Trace{NRanks: 1, AppTime: 1, Events: [][]Event{{
			{Op: mpi.OpCompute, Start: nan, End: 0.1}}}}, "non-finite time"},
		{"NaN end", Trace{NRanks: 1, AppTime: 1, Events: [][]Event{{
			{Op: mpi.OpCompute, Start: 0, End: nan}}}}, "non-finite time"},
		{"+Inf end", Trace{NRanks: 1, AppTime: 1, Events: [][]Event{{
			{Op: mpi.OpCompute, Start: 0, End: inf}}}}, "non-finite time"},
		{"-Inf start", Trace{NRanks: 1, AppTime: 1, Events: [][]Event{{
			{Op: mpi.OpCompute, Start: -inf, End: 0.1}}}}, "non-finite time"},
		{"NaN app time", Trace{NRanks: 1, AppTime: nan, Events: [][]Event{{
			{Op: mpi.OpCompute, Start: 0, End: 0.1}}}}, "app time"},
		{"+Inf app time", Trace{NRanks: 1, AppTime: inf, Events: [][]Event{{
			{Op: mpi.OpCompute, Start: 0, End: 0.1}}}}, "app time"},
	} {
		err := c.tr.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestLoadRejectsNegativeBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	doc := `{"nranks":2,"apptime":1,"events":[` +
		`[{"op":2,"peer":1,"peer2":-1,"bytes":-100,"tag":0,"start":0,"end":0.1}],` +
		`[{"op":3,"peer":0,"peer2":-1,"bytes":-100,"tag":0,"start":0,"end":0.1}]]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := Load(path)
	if err == nil || !strings.Contains(err.Error(), "rank 0 event 0 has a negative byte count") {
		t.Fatalf("Load = %v, %v; want the negative byte count error", tr, err)
	}
}
