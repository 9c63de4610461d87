package signature

import (
	"bytes"
	"errors"
	"testing"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/nas"
	"perfskel/internal/trace"
)

// TestLadderMatchesBuilder checks that every rung equals a fresh
// Builder's signature at the same threshold, that a rung is built once,
// and that the Builder is dropped when the last rung is built.
func TestLadderMatchesBuilder(t *testing.T) {
	app, err := nas.App("MG", nas.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(4)
	dur, err := mpi.Run(cluster.Build(cluster.Testbed(4), cluster.Dedicated()), 4, mpi.Config{}, rec, app)
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Finish(dur)
	l, err := NewLadder(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(tr)
	if err != nil {
		t.Fatal(err)
	}
	ts := Thresholds(0)
	if l.Len() != len(ts) {
		t.Fatalf("Len() = %d, want %d", l.Len(), len(ts))
	}
	// Descending order: the rungs need not be built in schedule order.
	for i := len(ts) - 1; i >= 0; i-- {
		if l.b == nil {
			t.Fatalf("builder dropped before rung %d was built", i)
		}
		var got, want bytes.Buffer
		s := l.At(i)
		if err := s.Write(&got); err != nil {
			t.Fatal(err)
		}
		if err := b.At(ts[i]).Write(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("rung %d (threshold %v) differs from Builder.At", i, ts[i])
		}
		if l.At(i) != s {
			t.Errorf("rung %d rebuilt on a second request", i)
		}
	}
	if l.b != nil {
		t.Error("builder kept after every rung was built")
	}
}

func TestLadderRejectsEmptyTrace(t *testing.T) {
	tr := &trace.Trace{NRanks: 1, Events: [][]trace.Event{{}}}
	if _, err := NewLadder(tr); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("got %v, want ErrEmptyTrace", err)
	}
}
