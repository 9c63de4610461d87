package trace

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/nas"
)

// recorderPair feeds one run to a Recorder and a StatsRecorder at once.
type recorderPair struct {
	full  *Recorder
	stats *StatsRecorder
}

func (p recorderPair) Record(rank int, rec mpi.OpRecord) {
	p.full.Record(rank, rec)
	p.stats.Record(rank, rec)
}

func (p recorderPair) RankDone(rank int, t float64) {
	p.full.RankDone(rank, t)
	p.stats.RankDone(rank, t)
}

// checkStatsRecorder runs app once into both recorders and requires the
// StatsRecorder's Stats to equal Recorder.Finish(dur).Stats() to the bit.
func checkStatsRecorder(t *testing.T, name string, nranks int, cfg mpi.Config, app mpi.App) {
	t.Helper()
	p := recorderPair{NewRecorder(nranks), NewStatsRecorder(nranks)}
	cl := cluster.Build(cluster.Testbed(nranks), cluster.Dedicated())
	dur, err := mpi.Run(cl, nranks, cfg, p, app)
	if err != nil {
		t.Fatal(err)
	}
	want := p.full.Finish(dur).Stats()
	got := p.stats.Finish(dur)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: StatsRecorder %+v, Recorder %+v", name, got, want)
	}
	bits := math.Float64bits
	for _, f := range []struct {
		field     string
		got, want float64
	}{
		{"ComputeTime", got.ComputeTime, want.ComputeTime},
		{"MPITime", got.MPITime, want.MPITime},
		{"ComputeFrac", got.ComputeFrac, want.ComputeFrac},
		{"MPIFrac", got.MPIFrac, want.MPIFrac},
	} {
		if bits(f.got) != bits(f.want) {
			t.Errorf("%s: %s bits %#x, want %#x", name, f.field, bits(f.got), bits(f.want))
		}
	}
	for op, d := range want.OpTime {
		if bits(got.OpTime[op]) != bits(d) {
			t.Errorf("%s: OpTime[%v] bits %#x, want %#x", name, op, bits(got.OpTime[op]), bits(d))
		}
	}
}

func TestStatsRecorderMatchesRecorderOnNAS(t *testing.T) {
	for _, name := range nas.AllBenchmarks() {
		app, err := nas.App(name, nas.ClassS)
		if err != nil {
			t.Fatal(err)
		}
		checkStatsRecorder(t, name, 4, mpi.Config{}, app)
	}
}

// TestStatsRecorderTrailingGaps covers the trailing computation events:
// rank 1's body returns right after its only MPI call, long before the
// run ends (RankDone must bound its trailing gap), and rank 2 makes no
// MPI call at all.
func TestStatsRecorderTrailingGaps(t *testing.T) {
	checkStatsRecorder(t, "early return", 3, freeCfg, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			c.Compute(1.0)
			c.Send(1, 0, 1000)
			c.Compute(2.0)
		case 1:
			c.Recv(0, 0)
		case 2:
			c.Compute(0.5)
		}
	})
}

// TestStatsRecorderEventSize bounds what one event keeps: a byte for the
// operation and a float64 for the duration, with no struct padding.
func TestStatsRecorderEventSize(t *testing.T) {
	var r StatsRecorder
	if n := unsafe.Sizeof(r.ops[0][0]) + unsafe.Sizeof(r.ds[0][0]); n > 9 {
		t.Errorf("StatsRecorder stores %d bytes per event, want at most 9", n)
	}
	for op := mpi.OpInvalid; op.String() != "Op(?)"; op++ {
		if mpi.Op(uint8(op)) != op {
			t.Errorf("%v does not fit the recorder's one-byte op", op)
		}
	}
}
