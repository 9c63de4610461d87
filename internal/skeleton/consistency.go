package skeleton

import (
	"fmt"

	"perfskel/internal/mpi"
	"perfskel/internal/signature"
	"perfskel/internal/trace"
)

// Consistent reports whether the skeleton's per-rank programs describe a
// mutually consistent communication pattern once loops are expanded
// (see signature.Pattern). A collective is identified by its kind and
// root: sizes may differ, since the runtime still matches them, but
// counts and order must align or the ranks desynchronise. An
// inconsistent skeleton deadlocks when executed; Build can produce one
// when the similarity threshold made corresponding events cluster — and
// therefore fold — differently across ranks.
func (p *Program) Consistent() error {
	pat := signature.NewPattern[collOp](p.NRanks)
	for rank, seq := range p.PerRank {
		var walk func(seq []Node, mult int)
		walk = func(seq []Node, mult int) {
			for _, nd := range seq {
				switch x := nd.(type) {
				case LoopNode:
					mark := pat.Mark(rank)
					walk(x.Body, mult*x.Count)
					pat.Repeat(rank, mark, x.Count)
				case OpNode:
					op := x.Op
					c := collOp{kind: op.Kind, root: mpi.None}
					if hasRoot(op.Kind) {
						c.root = op.Peer
					}
					pat.Op(rank, mult, op.Kind, op.Peer, op.Peer2, op.Tag, c)
				}
			}
		}
		walk(seq, 1)
	}
	if err := pat.Check(); err != nil {
		return fmt.Errorf("skeleton: %w", err)
	}
	return nil
}

// collOp identifies a collective call for Consistent.
type collOp struct {
	kind mpi.Op
	root int
}

func (c collOp) String() string { return fmt.Sprintf("%v(root=%d)", c.kind, c.root) }

// hasRoot reports whether the collective's Peer field is a root rank.
func hasRoot(op mpi.Op) bool {
	switch op {
	case mpi.OpBcast, mpi.OpReduce, mpi.OpGather, mpi.OpScatter:
		return true
	}
	return false
}

// BuildFromTrace runs the complete signature-plus-skeleton construction
// for scaling factor K: BuildFromLadder over a fresh ladder of the
// trace. This is the entry point the experiment drivers and tools use;
// signature.Build alone cannot see scaling-induced inconsistencies.
func BuildFromTrace(tr *trace.Trace, k int, opts Options) (*Program, *signature.Signature, error) {
	if err := checkK(k); err != nil {
		return nil, nil, err
	}
	l, err := signature.NewLadder(tr)
	if err != nil {
		return nil, nil, err
	}
	return BuildFromLadder(l, k, opts)
}

// BuildFromLadder searches the ladder's thresholds for the first one
// whose compression ratio reaches Q = K/2 AND whose skeleton is
// consistent across ranks, and returns that skeleton. Several searches
// may share one ladder, concurrently and for different K.
//
// If no threshold yields both, the best consistent skeleton is returned;
// its signature still reports TargetMet, so callers compare its Ratio
// against K/2 to tell. If no threshold yields a consistent skeleton at
// all, an error describing the inconsistency is returned.
//
// The returned signature is a shallow copy of the ladder's, with
// TargetMet set: callers may set that field, and must change nothing
// else.
func BuildFromLadder(l *signature.Ladder, k int, opts Options) (*Program, *signature.Signature, error) {
	if err := checkK(k); err != nil {
		return nil, nil, err
	}
	met := func(prog *Program, sig *signature.Signature) (*Program, *signature.Signature, error) {
		s := *sig
		s.TargetMet = true
		return prog, &s, nil
	}
	// Pass 1: only a threshold that reaches the target can end the
	// search, so the skeleton is built and checked there alone, in
	// threshold order.
	target := float64(k) / 2
	for i := range l.Len() {
		sig := l.At(i)
		if sig.Ratio < target {
			continue
		}
		prog, err := BuildOpts(sig, k, opts)
		if err != nil {
			return nil, nil, err
		}
		if prog.Consistent() == nil {
			return met(prog, sig)
		}
	}
	// Pass 2: no threshold met the target; fall back to the consistent
	// skeleton of highest ratio, the first one on a tie.
	var bestP *Program
	var bestS *signature.Signature
	var lastErr error
	for i := range l.Len() {
		sig := l.At(i)
		prog, err := BuildOpts(sig, k, opts)
		if err != nil {
			return nil, nil, err
		}
		if cerr := prog.Consistent(); cerr != nil {
			lastErr = cerr
		} else if bestS == nil || sig.Ratio > bestS.Ratio {
			bestP, bestS = prog, sig
		}
	}
	if bestP != nil {
		// The fallback signature reports TargetMet as well: the
		// construction and experiment goldens pin that, so changing it
		// is a deliberate output change of its own.
		return met(bestP, bestS)
	}
	return nil, nil, fmt.Errorf("skeleton: no similarity threshold yields a consistent skeleton (K=%d): %w", k, lastErr)
}
