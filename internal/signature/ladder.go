package signature

import (
	"sync"

	"perfskel/internal/trace"
)

// Ladder is one trace's signatures along Thresholds(0), built lazily and
// kept. The signature at a threshold does not depend on the skeleton
// scaling factor, so every K-search over one trace can share a Ladder
// and pays for each threshold step once.
//
// A Ladder is safe for concurrent use. The signatures it returns are
// shared between callers and must not be modified; copy one before
// setting a field.
type Ladder struct {
	mu    sync.Mutex
	b     *Builder // nil once every threshold is built
	ts    []float64
	sigs  []*Signature
	built int
}

// NewLadder validates the trace and prepares it for clustering (see
// NewBuilder). The Ladder keeps no reference to the trace, so the trace
// may be dropped once NewLadder returns.
func NewLadder(tr *trace.Trace) (*Ladder, error) {
	b, err := NewBuilder(tr)
	if err != nil {
		return nil, err
	}
	ts := Thresholds(0)
	return &Ladder{b: b, ts: ts, sigs: make([]*Signature, len(ts))}, nil
}

// Len returns the number of thresholds on the ladder.
func (l *Ladder) Len() int { return len(l.ts) }

// At returns the signature at the i-th threshold of Thresholds(0),
// building it on first request. Once every threshold is built the
// Builder, and with it the per-event clustering state, is dropped.
func (l *Ladder) At(i int) *Signature {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.sigs[i]; s != nil {
		return s
	}
	s := l.b.At(l.ts[i])
	l.sigs[i] = s
	l.built++
	if l.built == len(l.sigs) {
		l.b = nil
	}
	return s
}
