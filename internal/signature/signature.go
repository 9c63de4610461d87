package signature

import (
	"errors"
	"fmt"
	"strings"

	"perfskel/internal/trace"
)

// ErrEmptyTrace reports a trace with no events: there is nothing to
// compress into a signature. Callers branch on it with errors.Is (the
// prediction service maps it to a 400).
var ErrEmptyTrace = errors.New("signature: empty trace")

// Options controls signature construction.
type Options struct {
	// TargetRatio is the desired compression ratio Q between trace length
	// and signature length. The similarity threshold is raised from
	// InitialThreshold along Thresholds until the ratio is reached
	// (paper: Q = K/2 where K is the skeleton scaling factor). Zero means
	// "no target": a single pass at InitialThreshold.
	TargetRatio float64
	// InitialThreshold is the starting similarity threshold, in [0, 1]
	// (default 0: only effectively identical events cluster).
	InitialThreshold float64
}

// Thresholds returns the similarity thresholds a search from start
// visits, in order. The increment starts at 0.005 and grows by 1.3 per
// step, so the search is fine-grained at the low thresholds that matter
// and still bounded (17 thresholds from 0) when the target is unreachable; it
// ends at 1. The paper observes that NAS benchmarks never needed more
// than 0.20.
func Thresholds(start float64) []float64 {
	ts := []float64{start}
	for t, step := start, 0.005; t < 1; {
		t += step
		step *= 1.3
		if t > 1 {
			t = 1
		}
		ts = append(ts, t)
	}
	return ts
}

// Signature is a compressed execution signature: per-rank loop-structured
// event sequences over a shared cluster table.
type Signature struct {
	NRanks      int
	AppTime     float64 // the traced run's parallel execution time
	TraceEvents int     // length of the original trace
	PerRank     [][]Node
	Clusters    []*Cluster
	Threshold   float64 // similarity threshold actually used
	Ratio       float64 // achieved compression ratio
	TargetMet   bool    // whether TargetRatio was reached
}

// Len returns the signature length (total leaves across ranks, loop
// bodies counted once).
func (s *Signature) Len() int {
	n := 0
	for _, seq := range s.PerRank {
		n += seqLeaves(seq)
	}
	return n
}

// RankTime returns the wall time represented by rank r's sequence.
func (s *Signature) RankTime(r int) float64 { return seqTime(s.PerRank[r]) }

func (s *Signature) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "signature: %d ranks, %d events -> %d leaves (ratio %.1f, threshold %.3f)\n",
		s.NRanks, s.TraceEvents, s.Len(), s.Ratio, s.Threshold)
	for r, seq := range s.PerRank {
		fmt.Fprintf(&b, "rank %d:", r)
		for _, n := range seq {
			fmt.Fprintf(&b, " %s", n)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Build compresses a trace into an execution signature. If
// opts.TargetRatio is set, the similarity threshold is raised along
// Thresholds until the achieved compression ratio reaches it at a
// consistent signature (or the last threshold is hit, in which case
// TargetMet is false and the best signature found is returned).
func Build(tr *trace.Trace, opts Options) (*Signature, error) {
	b, err := NewBuilder(tr)
	if err != nil {
		return nil, err
	}
	// Written so that NaN fails too.
	if t := opts.InitialThreshold; !(t >= 0 && t <= 1) {
		return nil, fmt.Errorf("signature: initial threshold %v out of [0, 1]", t)
	}

	var best, bestConsistent *Signature
	for _, t := range Thresholds(opts.InitialThreshold) {
		s := b.At(t)
		if opts.TargetRatio <= 0 {
			s.TargetMet = true
			return s, nil
		}
		consistent := s.Consistent() == nil
		if best == nil || s.Ratio > best.Ratio {
			best = s
		}
		if consistent && (bestConsistent == nil || s.Ratio > bestConsistent.Ratio) {
			bestConsistent = s
		}
		// Inconsistent thresholds (a cluster of jittered events split
		// differently across ranks) would yield deadlocking skeletons;
		// keep raising the threshold past them.
		if consistent && s.Ratio >= opts.TargetRatio {
			s.TargetMet = true
			return s, nil
		}
	}
	if bestConsistent != nil {
		return bestConsistent, nil
	}
	return best, nil
}
