// Package trace records the execution trace of a message-passing program:
// every MPI call with its parameters and start/end times, plus computation
// events inferred from the gaps between consecutive MPI calls — exactly
// the information the paper's profiling library captures per process
// (section 3.1). No application modification is required: the recorder
// implements mpi.Monitor and interposes on the runtime, the analogue of a
// PMPI profiling library.
package trace

import (
	"fmt"
	"math"

	"perfskel/internal/mpi"
)

// Event is one entry of an execution trace: an MPI operation or an
// inferred computation interval.
type Event struct {
	Op    mpi.Op  `json:"op"`
	Sub   mpi.Op  `json:"sub,omitempty"`   // for waits: kind of request waited on
	Peer  int     `json:"peer"`            // destination/source/root; mpi.None if unused
	Peer2 int     `json:"peer2"`           // sendrecv receive source; mpi.None if unused
	Bytes int64   `json:"bytes"`           // message size (compute: 0)
	Byte2 int64   `json:"byte2,omitempty"` // sendrecv receive size
	Tag   int     `json:"tag"`
	Start float64 `json:"start"` // virtual seconds
	End   float64 `json:"end"`
}

// Duration returns the event's elapsed time.
func (e Event) Duration() float64 { return e.End - e.Start }

// IsCompute reports whether the event is an inferred computation interval.
func (e Event) IsCompute() bool { return e.Op == mpi.OpCompute }

func (e Event) String() string {
	if e.IsCompute() {
		return fmt.Sprintf("compute %.6fs", e.Duration())
	}
	return fmt.Sprintf("%v peer=%d bytes=%d tag=%d %.6fs", e.Op, e.Peer, e.Bytes, e.Tag, e.Duration())
}

// Trace is a complete execution trace: one event stream per rank plus the
// parallel execution time.
type Trace struct {
	NRanks  int       `json:"nranks"`
	AppTime float64   `json:"apptime"` // parallel execution time, seconds
	Events  [][]Event `json:"events"`  // per rank, in time order
}

// Len returns the total number of events across all ranks.
func (t *Trace) Len() int {
	n := 0
	for _, evs := range t.Events {
		n += len(evs)
	}
	return n
}

// Validate checks internal consistency: finite times, non-negative byte
// counts, per-rank time ordering, positive durations, events within
// [0, AppTime].
func (t *Trace) Validate() error {
	if len(t.Events) != t.NRanks {
		return fmt.Errorf("trace: %d ranks but %d event streams", t.NRanks, len(t.Events))
	}
	if !finite(t.AppTime) {
		return fmt.Errorf("trace: app time %v is not finite", t.AppTime)
	}
	for r, evs := range t.Events {
		last := 0.0
		for i, e := range evs {
			if !finite(e.Start) || !finite(e.End) {
				return fmt.Errorf("trace: rank %d event %d has a non-finite time", r, i)
			}
			if e.Bytes < 0 || e.Byte2 < 0 {
				return fmt.Errorf("trace: rank %d event %d has a negative byte count", r, i)
			}
			if e.End < e.Start {
				return fmt.Errorf("trace: rank %d event %d ends before it starts", r, i)
			}
			if e.Start < last-1e-9 {
				return fmt.Errorf("trace: rank %d event %d overlaps predecessor", r, i)
			}
			if e.End > t.AppTime+1e-9 {
				return fmt.Errorf("trace: rank %d event %d ends after app time", r, i)
			}
			last = e.End
		}
	}
	return nil
}

// finite reports whether f is neither NaN nor infinite.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// minComputeGap is the smallest inter-call gap recorded as a computation
// event; anything shorter is measurement noise.
const minComputeGap = 1e-9

// clock infers computation events from the gaps between MPI calls. It
// tracks each rank's last call end and, once known, the time the rank's
// program body returned. Recorder and StatsRecorder share it, so both
// see the same events.
type clock struct {
	lastEnd []float64
	rankEnd []float64 // per-rank finish time; 0 = unknown
}

func newClock(nranks int) clock {
	return clock{lastEnd: make([]float64, nranks), rankEnd: make([]float64, nranks)}
}

// RankDone implements mpi.RankFinisher: it records when the rank's program
// body returned, so the trailing computation event covers only the rank's
// own work and not the idle time until the last rank finishes.
func (c *clock) RankDone(rank int, t float64) { c.rankEnd[rank] = t }

// advance moves the rank's clock to an operation running from start to
// end. It returns where the computation before the operation began, and
// whether that gap is long enough to be a computation event.
func (c *clock) advance(rank int, start, end float64) (from float64, ok bool) {
	from = c.lastEnd[rank]
	c.lastEnd[rank] = end
	return from, start-from > minComputeGap
}

// tail returns the rank's trailing computation event when the trace
// closes at appTime: from its last MPI call to its own finish time when
// known (so another rank finishing later does not masquerade as
// computation), else to appTime.
func (c *clock) tail(rank int, appTime float64) (from, to float64, ok bool) {
	to = appTime
	if e := c.rankEnd[rank]; e > 0 && e < to {
		to = e
	}
	from = c.lastEnd[rank]
	return from, to, to-from > minComputeGap
}

// Recorder builds a Trace while a program runs. It implements mpi.Monitor
// and mpi.RankFinisher. Use it as: rec := NewRecorder(n); mpi.Run(...,
// rec, app); tr := rec.Finish(appTime).
type Recorder struct {
	clock
	events [][]Event
}

// NewRecorder returns a recorder for nranks ranks.
func NewRecorder(nranks int) *Recorder {
	return &Recorder{clock: newClock(nranks), events: make([][]Event, nranks)}
}

// Record implements mpi.Monitor: it appends the operation, preceded by a
// computation event covering any gap since the rank's previous operation.
func (r *Recorder) Record(rank int, rec mpi.OpRecord) {
	if from, ok := r.advance(rank, rec.Start, rec.End); ok {
		r.events[rank] = append(r.events[rank], Event{
			Op: mpi.OpCompute, Peer: mpi.None, Peer2: mpi.None,
			Start: from, End: rec.Start,
		})
	}
	r.events[rank] = append(r.events[rank], Event{
		Op: rec.Op, Sub: rec.Sub, Peer: rec.Peer, Peer2: rec.Peer2,
		Bytes: rec.Bytes, Byte2: rec.Byte2, Tag: rec.Tag,
		Start: rec.Start, End: rec.End,
	})
}

// Finish closes the trace at the given parallel execution time, appending
// trailing computation events for ranks that worked past their last MPI
// call.
func (r *Recorder) Finish(appTime float64) *Trace {
	t := &Trace{NRanks: len(r.events), AppTime: appTime, Events: r.events}
	for rank := range r.events {
		if from, to, ok := r.tail(rank, appTime); ok {
			t.Events[rank] = append(t.Events[rank], Event{
				Op: mpi.OpCompute, Peer: mpi.None, Peer2: mpi.None,
				Start: from, End: to,
			})
		}
	}
	return t
}
