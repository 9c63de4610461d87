package skeleton

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/signature"
)

// ErrBadK reports an unusable skeleton scaling factor — K below 1, or a
// target time K cannot be derived from (not positive and finite, or so
// small the factor overflows an int). Callers branch on it with
// errors.Is (the prediction service maps it to a 400).
var ErrBadK = errors.New("bad scaling factor")

// ScaleMode selects how unreduced communication operations are scaled
// down by K (step 3 of section 3.3).
type ScaleMode int

const (
	// ByteScale divides the byte count by K, the paper's approach. Its
	// known weakness: the latency component of the scaled operation is not
	// reduced, inflating skeleton communication time under low-bandwidth
	// sharing.
	ByteScale ScaleMode = iota
	// TimeScale divides the operation's *estimated time* by K under an
	// assumed latency/bandwidth, converting back to a byte count and
	// dropping operations whose scaled time falls below one latency — the
	// improvement the paper says requires assumptions about the execution
	// environment (section 3.3).
	TimeScale
)

// Options tunes skeleton construction beyond the paper's defaults.
type Options struct {
	// Mode selects communication scaling (default ByteScale, the paper's).
	Mode ScaleMode
	// Latency and Bandwidth are the environment assumptions of TimeScale;
	// defaults are the simulated testbed's (50 us, 125 MB/s).
	Latency   float64
	Bandwidth float64
	// SpreadCompute reproduces the empirical distribution of compute
	// durations (cycling through quantiles per loop iteration) instead of
	// the cluster mean — the paper's future-work fix for unbalanced
	// scenarios (section 4.4).
	SpreadCompute bool
	// Coverage is the dominant-sequence coverage threshold for the
	// smallest-good-skeleton bound (default DefaultCoverage).
	Coverage float64
}

func (o Options) withDefaults() Options {
	if o.Latency == 0 {
		o.Latency = cluster.DefaultLatency
	}
	if o.Bandwidth == 0 {
		o.Bandwidth = cluster.GigabitBandwidth
	}
	if o.Coverage == 0 {
		o.Coverage = DefaultCoverage
	}
	return o
}

// Build constructs a performance skeleton from an execution signature with
// integer scaling factor K, following the paper's four-step procedure
// (section 3.3):
//
//  1. Loop iteration counts are divided by K; remainder iterations are
//     unrolled into the unreduced part.
//  2. Groups of K identical operations anywhere in the unreduced part are
//     replaced by a single (unscaled) occurrence.
//  3. Remaining unreduced operations are scaled down by K by adjusting
//     parameters (see ScaleMode).
//  4. The result is an executable synthetic program (and can be rendered
//     to C or Go source, see codegen).
func Build(sig *signature.Signature, k int) (*Program, error) {
	return BuildOpts(sig, k, Options{})
}

// BuildOpts is Build with explicit construction options.
func BuildOpts(sig *signature.Signature, k int, opts Options) (*Program, error) {
	if err := checkK(k); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	p := &Program{
		NRanks:      sig.NRanks,
		K:           k,
		AppTime:     sig.AppTime,
		TargetTime:  sig.AppTime / float64(k),
		MinGoodTime: MinGoodTime(sig, opts.Coverage),
	}
	p.Good = p.TargetTime >= p.MinGoodTime-1e-9
	sc := newScaler(k, opts)
	for r := 0; r < sig.NRanks; r++ {
		p.PerRank = append(p.PerRank, sc.scaleSeq(sig.PerRank[r]))
	}
	return p, nil
}

// checkK returns an ErrBadK error for a scaling factor below 1.
func checkK(k int) error {
	if k < 1 {
		return fmt.Errorf("skeleton: scaling factor K must be >= 1, got %d: %w", k, ErrBadK)
	}
	return nil
}

// KForTime derives the integer scaling factor for an intended skeleton
// execution time: K = round(appTime / target), at least 1, as the paper's
// experiments do for their 10/5/2/1/0.5-second skeletons. Every
// time-targeted construction path must derive K through this helper so
// the paths cannot disagree at rounding boundaries. A non-finite time,
// or a ratio too large for an int, is ErrBadK rather than a silent K=1.
func KForTime(appTime, target float64) (int, error) {
	if !(target > 0) || math.IsInf(target, 0) {
		return 0, fmt.Errorf("skeleton: target time must be positive and finite, got %v: %w", target, ErrBadK)
	}
	if math.IsNaN(appTime) || math.IsInf(appTime, 0) {
		return 0, fmt.Errorf("skeleton: application time must be finite, got %v: %w", appTime, ErrBadK)
	}
	r := math.Round(appTime / target)
	if r >= math.MaxInt {
		return 0, fmt.Errorf("skeleton: scaling factor %v/%v does not fit in an int: %w", appTime, target, ErrBadK)
	}
	if r < 1 {
		return 1, nil
	}
	return int(r), nil
}

// distQuantiles is how many duration quantiles SpreadCompute retains per
// compute cluster.
const distQuantiles = 8

// opFromCluster converts a signature cluster centroid to a skeleton
// operation plus its measured dedicated duration.
func opFromCluster(c *signature.Cluster, opts Options) (Op, float64) {
	op := Op{
		Kind: c.Op, Sub: c.Sub,
		Peer: c.Peer, Peer2: c.Peer2, Tag: c.Tag,
		Bytes: int64(math.Round(c.Bytes)),
		Byte2: int64(math.Round(c.Byte2)),
	}
	if c.Op == mpi.OpCompute {
		op.Work = c.Duration
		if opts.SpreadCompute && len(c.Durations) > 1 {
			op.Dist = quantiles(c.Durations, distQuantiles)
		}
	}
	return op, c.Duration
}

// quantiles returns n evenly spaced midpoint quantiles of the samples, in
// a bit-reversed (interleaved) order so that loops whose iteration count
// is not a multiple of n still sample the distribution nearly evenly.
func quantiles(samples []float64, n int) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	ordered := make([]float64, n)
	for i := 0; i < n; i++ {
		idx := (2*i + 1) * len(s) / (2 * n)
		if idx >= len(s) {
			idx = len(s) - 1
		}
		ordered[i] = s[idx]
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = ordered[bitReverse(i, n)]
	}
	return out
}

// bitReverse reverses the bits of i within the width of n (a power of
// two); for non-power-of-two n it degrades to identity.
func bitReverse(i, n int) int {
	if n&(n-1) != 0 {
		return i
	}
	r := 0
	for m := 1; m < n; m <<= 1 {
		r <<= 1
		if i&1 != 0 {
			r |= 1
		}
		i >>= 1
	}
	return r
}

// opKey is the comparable identity of an operation for the group-of-K
// rule; it excludes the (unhashable, informational) duration distribution.
type opKey struct {
	Kind  mpi.Op
	Sub   mpi.Op
	Peer  int
	Peer2 int
	Tag   int
	Bytes int64
	Byte2 int64
	Work  float64
}

func identity(op Op) opKey {
	return opKey{
		Kind: op.Kind, Sub: op.Sub,
		Peer: op.Peer, Peer2: op.Peer2, Tag: op.Tag,
		Bytes: op.Bytes, Byte2: op.Byte2, Work: op.Work,
	}
}

// clusterOp is a signature cluster converted to a skeleton operation,
// with the dense index of the operation's identity.
type clusterOp struct {
	op  Op
	dur float64
	id  int
}

// scaler applies the scaling procedure to the ranks of one signature. It
// converts each cluster once (opFromCluster is pure, and the duration
// distributions it builds are only read, so the operations can share
// them) and numbers each distinct operation identity densely, so the
// group-of-K pass counts occurrences in reused slices.
type scaler struct {
	k    int
	opts Options
	ops  map[*signature.Cluster]*clusterOp
	ids  map[opKey]int
	// count and seen are indexed by identity: occurrences in the pending
	// stretch and occurrences visited so far. Both are zero between
	// flushes.
	count, seen []int
	pending     []*clusterOp
}

func newScaler(k int, opts Options) *scaler {
	return &scaler{k: k, opts: opts, ops: map[*signature.Cluster]*clusterOp{}, ids: map[opKey]int{}}
}

// op returns the cluster's operation, converting it on first use.
func (s *scaler) op(c *signature.Cluster) *clusterOp {
	if co, ok := s.ops[c]; ok {
		return co
	}
	op, dur := opFromCluster(c, s.opts)
	key := identity(op)
	id, ok := s.ids[key]
	if !ok {
		id = len(s.ids)
		s.ids[key] = id
		s.count = append(s.count, 0)
		s.seen = append(s.seen, 0)
	}
	co := &clusterOp{op: op, dur: dur, id: id}
	s.ops[c] = co
	return co
}

// scaleSeq applies the scaling procedure to one rank's signature sequence.
func (s *scaler) scaleSeq(seq []signature.Node) []Node {
	var out []Node
	k := s.k

	flush := func() {
		if len(s.pending) == 0 {
			return
		}
		// Step 2+3 over the whole unreduced stretch: count occurrences per
		// identical operation; every K-th occurrence is kept unscaled
		// (representing its group of K), and occurrences past the last
		// full group are kept with parameters scaled down by K.
		for _, po := range s.pending {
			s.count[po.id]++
		}
		for _, po := range s.pending {
			j := s.seen[po.id]
			s.seen[po.id] = j + 1
			q := s.count[po.id] / k
			switch {
			case j < q*k && j%k == 0:
				// Representative of a full group of K.
				out = append(out, OpNode{Op: po.op, Dur: po.dur})
			case j < q*k:
				// Absorbed into its group's representative.
			default:
				// Leftover: scale parameters down by K.
				if op, keep := scaleOpts(po.op, k, s.opts); keep {
					out = append(out, OpNode{Op: op, Dur: po.dur / float64(k)})
				}
			}
		}
		for _, po := range s.pending {
			s.count[po.id], s.seen[po.id] = 0, 0
		}
		s.pending = s.pending[:0]
	}

	var process func(nodes []signature.Node)
	process = func(nodes []signature.Node) {
		for _, nd := range nodes {
			switch x := nd.(type) {
			case signature.Leaf:
				s.pending = append(s.pending, s.op(x.C))
			case *signature.Loop:
				q, r := x.Count/k, x.Count%k
				if q > 0 {
					flush()
					out = append(out, LoopNode{Count: q, Body: s.verbatim(x.Body)})
				}
				// Remainder iterations join the unreduced part; nested
				// loops inside them are scaled recursively.
				for i := 0; i < r; i++ {
					process(x.Body)
				}
			}
		}
	}
	process(seq)
	flush()
	return out
}

// verbatim converts signature nodes to skeleton nodes without scaling
// (for the bodies of reduced loops: each retained iteration is a full
// original iteration).
func (s *scaler) verbatim(seq []signature.Node) []Node {
	out := make([]Node, 0, len(seq))
	for _, nd := range seq {
		switch x := nd.(type) {
		case signature.Leaf:
			co := s.op(x.C)
			out = append(out, OpNode{Op: co.op, Dur: co.dur})
		case *signature.Loop:
			out = append(out, LoopNode{Count: x.Count, Body: s.verbatim(x.Body)})
		}
	}
	return out
}

// scaleOpts reduces an operation's parameters by K (step 3) under the
// selected mode. The returned bool is false when the operation should be
// dropped entirely (TimeScale, scaled time below one latency). Dropping is
// symmetric across ranks because it depends only on the operation's own
// parameters, which match on both ends of a communication.
func scaleOpts(op Op, k int, opts Options) (Op, bool) {
	op2 := op
	op2.Work /= float64(k)
	if op.Bytes <= 0 || !op.Kind.IsCollective() && op.Kind != mpi.OpSend && op.Kind != mpi.OpRecv &&
		op.Kind != mpi.OpIsend && op.Kind != mpi.OpIrecv && op.Kind != mpi.OpSendrecv && op.Kind != mpi.OpWait {
		return op2, true
	}
	switch opts.Mode {
	case TimeScale:
		t := opts.Latency + float64(op.Bytes)/opts.Bandwidth
		scaled := t / float64(k)
		if scaled <= opts.Latency {
			// The operation's scaled time is below one latency: it cannot
			// be represented by a smaller message. Symmetric operations
			// (collectives, sendrecv) are dropped outright — every rank
			// makes the same decision. One-sided point-to-point operations
			// are never dropped: an Irecv records zero bytes at post time,
			// so the two ends of a message could decide differently and
			// deadlock the skeleton; they shrink to the minimum instead.
			if op.Kind.IsCollective() || op.Kind == mpi.OpSendrecv {
				return op2, false
			}
			op2.Bytes = 1
			if op.Byte2 > 0 {
				op2.Byte2 = 1
			}
			return op2, true
		}
		op2.Bytes = int64(math.Max(1, (scaled-opts.Latency)*opts.Bandwidth))
		if op.Byte2 > 0 {
			t2 := opts.Latency + float64(op.Byte2)/opts.Bandwidth
			op2.Byte2 = int64(math.Max(1, (t2/float64(k)-opts.Latency)*opts.Bandwidth))
		}
	default: // ByteScale
		op2.Bytes = op.Bytes / int64(k)
		if op2.Bytes == 0 {
			op2.Bytes = 1
		}
		if op.Byte2 > 0 {
			op2.Byte2 = op.Byte2 / int64(k)
			if op2.Byte2 == 0 {
				op2.Byte2 = 1
			}
		}
	}
	return op2, true
}

// scaleOp reduces an operation's parameters by K with the paper's byte
// scaling; kept for the basic path and tests.
func scaleOp(op Op, k int) Op {
	out, _ := scaleOpts(op, k, Options{}.withDefaults())
	return out
}
