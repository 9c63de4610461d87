package trace

import "perfskel/internal/mpi"

// Stats summarises where a traced execution spent its time, the measure
// behind the paper's Figure 2 (percentage of time in MPI operations vs
// other computation).
type Stats struct {
	ComputeTime float64 // summed across ranks, seconds
	MPITime     float64 // summed across ranks, seconds
	ComputeFrac float64 // fraction of total rank-time in computation
	MPIFrac     float64 // fraction of total rank-time in MPI operations
	OpCounts    map[mpi.Op]int
	OpTime      map[mpi.Op]float64
	Events      int
}

// Stats computes time-breakdown statistics for the trace. Fractions are of
// total rank-time (NRanks x AppTime); any residue not covered by events
// (sub-nanosecond gaps) is ignored.
func (t *Trace) Stats() Stats {
	s := newStats()
	for _, evs := range t.Events {
		for _, e := range evs {
			s.add(e.Op, e.Duration())
		}
	}
	s.close(t.NRanks, t.AppTime)
	return s
}

// newStats, add and close are the one summation behind Trace.Stats and
// StatsRecorder.Finish. Float sums depend on their order, so both add
// the events rank by rank, each rank's in time order.
func newStats() Stats {
	return Stats{OpCounts: make(map[mpi.Op]int), OpTime: make(map[mpi.Op]float64)}
}

// add counts one event of the given operation and duration.
func (s *Stats) add(op mpi.Op, d float64) {
	s.OpCounts[op]++
	s.OpTime[op] += d
	if op == mpi.OpCompute {
		s.ComputeTime += d
	} else {
		s.MPITime += d
	}
	s.Events++
}

// close sets the fractions of total rank-time, nranks x appTime.
func (s *Stats) close(nranks int, appTime float64) {
	if total := float64(nranks) * appTime; total > 0 {
		s.ComputeFrac = s.ComputeTime / total
		s.MPIFrac = s.MPITime / total
	}
}

// StatsRecorder records a run for its Stats alone. Where a Recorder keeps
// a 72-byte Event, it keeps the event's operation in one byte and its
// duration in eight, in two parallel per-rank slices, and its Finish
// returns exactly what Recorder.Finish(appTime).Stats() would. It
// implements mpi.Monitor and mpi.RankFinisher.
type StatsRecorder struct {
	clock
	ops [][]uint8   // per rank, each event's mpi.Op
	ds  [][]float64 // per rank, each event's duration
}

// NewStatsRecorder returns a stats-only recorder for nranks ranks.
func NewStatsRecorder(nranks int) *StatsRecorder {
	return &StatsRecorder{
		clock: newClock(nranks),
		ops:   make([][]uint8, nranks),
		ds:    make([][]float64, nranks),
	}
}

// Record implements mpi.Monitor, as Recorder.Record does.
func (r *StatsRecorder) Record(rank int, rec mpi.OpRecord) {
	if from, ok := r.advance(rank, rec.Start, rec.End); ok {
		r.add(rank, mpi.OpCompute, rec.Start-from)
	}
	r.add(rank, rec.Op, rec.End-rec.Start)
}

// add appends one event to the rank's log. Every mpi.Op fits in a byte.
func (r *StatsRecorder) add(rank int, op mpi.Op, d float64) {
	r.ops[rank] = append(r.ops[rank], uint8(op))
	r.ds[rank] = append(r.ds[rank], d)
}

// Finish closes the run at the given parallel execution time, as
// Recorder.Finish does, and returns its statistics.
func (r *StatsRecorder) Finish(appTime float64) Stats {
	s := newStats()
	for rank, ops := range r.ops {
		for i, op := range ops {
			s.add(mpi.Op(op), r.ds[rank][i])
		}
		if from, to, ok := r.tail(rank, appTime); ok {
			s.add(mpi.OpCompute, to-from)
		}
	}
	s.close(len(r.ops), appTime)
	return s
}
