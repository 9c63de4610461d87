package signature

import (
	"bytes"
	"errors"
	"testing"

	"perfskel/internal/mpi"
	"perfskel/internal/trace"
)

// FuzzSignatureRead: Read never panics and returns a nil signature with every
// error, and a signature it accepts is a fixed point of the JSON form: Write's
// output decodes again, and writing that gives the same bytes. The seed
// in testdata/fuzz is `skel`'s output for IS class S on 2 ranks.
func FuzzSignatureRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sig, err := Read(bytes.NewReader(data))
		if err != nil {
			if sig != nil {
				t.Fatalf("Read returned a signature with error %v", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := sig.Write(&first); err != nil {
			t.Fatalf("Write of a decoded signature: %v", err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Read rejects Write's output: %v\n%s", err, first.Bytes())
		}
		if err := again.Write(&second); err != nil {
			t.Fatalf("second Write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// fuzzOps are the operations fuzzTrace draws from: compute, blocking and
// non-blocking point-to-point, Sendrecv and a collective.
var fuzzOps = []mpi.Op{mpi.OpCompute, mpi.OpCompute, mpi.OpSend, mpi.OpRecv, mpi.OpIsend, mpi.OpWait, mpi.OpSendrecv, mpi.OpAllreduce}

// fuzzTrace decodes fuzz bytes into a small valid trace. The first byte
// picks 1 to 4 ranks; each following 4-byte group (at most 96) appends
// one event to a rank's stream: byte 0 picks the rank and the operation,
// byte 1 the peer, the tag and a second size, byte 2 the size and byte 3
// the duration and the gap before the event. Compute events carry a size
// too, and any event may carry a second size (every Sendrecv does when
// byte 1 has bits 4–6 set), so every soft value the clustering reads is
// exercised. Sizes and durations take few distinct values, so thresholds
// split and merge groups.
func fuzzTrace(data []byte) *trace.Trace {
	nr := 1
	if len(data) > 0 {
		nr += int(data[0] % 4)
		data = data[1:]
	}
	tr := &trace.Trace{NRanks: nr, Events: make([][]trace.Event, nr)}
	clock := make([]float64, nr)
	for n := 0; len(data) >= 4 && n < 96; n++ {
		b := data[:4]
		data = data[4:]
		r := int(b[0]) % nr
		e := trace.Event{
			Op:    fuzzOps[int(b[0]>>2)%len(fuzzOps)],
			Peer:  mpi.None,
			Peer2: mpi.None,
			Bytes: int64(b[2]&0x3f) << (b[2] >> 6 * 3),
		}
		if e.Op != mpi.OpCompute {
			e.Peer = int(b[1]) % nr
			e.Tag = int(b[1]>>2) % 3
		}
		switch {
		case e.Op == mpi.OpSendrecv:
			e.Peer2 = (e.Peer + 1) % nr
			e.Byte2 = int64(b[1]&0x70) * 40
		case e.Op == mpi.OpWait:
			e.Sub = mpi.OpIsend
		case b[1]&0x80 != 0:
			e.Byte2 = int64(b[1] & 0x0f)
		}
		e.Start = clock[r] + float64(b[3]&3)*1e-6
		e.End = e.Start + float64(b[3]>>2)*1e-5
		clock[r] = e.End
		tr.Events[r] = append(tr.Events[r], e)
		tr.AppTime = max(tr.AppTime, e.End)
	}
	return tr
}

// FuzzLadder: a Ladder over a small valid trace keeps nothing of it.
// After NewLadder returns, every event of the trace is overwritten, and
// still every rung writes byte for byte what builderReference, the
// trace-reading Builder, writes at the same threshold over an intact
// copy. The seeds in testdata/fuzz mix every operation fuzzTrace draws.
func FuzzLadder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzTrace(data)
		ref, refErr := newBuilderReference(fuzzTrace(data))
		l, err := NewLadder(tr)
		if (err == nil) != (refErr == nil) || err != nil && !errors.Is(err, ErrEmptyTrace) {
			t.Fatalf("NewLadder error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return
		}
		for r := range tr.Events {
			for i := range tr.Events[r] {
				tr.Events[r][i] = trace.Event{Op: mpi.OpSendrecv, Bytes: 1 << 40, Byte2: 7, Start: -1, End: 1e9}
			}
		}
		tr.NRanks, tr.AppTime = 0, -1
		ts := Thresholds(0)
		for i := range l.Len() {
			var got, want bytes.Buffer
			if err := l.At(i).Write(&got); err != nil {
				t.Fatal(err)
			}
			if err := ref.At(ts[i]).Write(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("rung %d (threshold %v) differs from the reference:\n%s\n%s", i, ts[i], got.Bytes(), want.Bytes())
			}
		}
	})
}
