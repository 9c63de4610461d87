package signature

import (
	"fmt"
	"math"
	"strings"

	"perfskel/internal/mpi"
)

// This file defines the canonical signature form shared by the two
// producers that must agree for static signature verification:
//
//   - Canon (below) maps a Signature onto it: a dynamic one, or the one
//     staticsig.Lower recovers from skeleton *source code*;
//   - skeleton.Canon maps a generated skeleton Program onto it.
//
// A generated skeleton is only trusted when the form recovered from its
// source equals the form of the program it was generated from exactly,
// and is a scaled-down version (ScaledDiff) of the application
// signature it descends from.

// CanonOp is one operation in canonical form. Only the parameters the
// generated source can reproduce are populated; NormalizeOp zeroes the
// rest, so equal canonical ops are exactly the equal values (Work is
// compared with WorkEps tolerance because it round-trips through a
// fixed-precision literal).
type CanonOp struct {
	Kind  mpi.Op
	Sub   mpi.Op // waits: request kind
	Peer  int
	Peer2 int
	Tag   int
	Bytes int64
	Work  float64
}

func (o CanonOp) String() string {
	switch o.Kind {
	case mpi.OpCompute:
		return fmt.Sprintf("compute(%.9f)", o.Work)
	case mpi.OpWait:
		return fmt.Sprintf("wait(%d)", int(o.Sub))
	case mpi.OpSendrecv:
		return fmt.Sprintf("%v(dst=%d,src=%d,tag=%d,bytes=%d)", o.Kind, o.Peer, o.Peer2, o.Tag, o.Bytes)
	default:
		return fmt.Sprintf("%v(peer=%d,tag=%d,bytes=%d)", o.Kind, o.Peer, o.Tag, o.Bytes)
	}
}

// CanonNode is an element of a canonical sequence: an op (Op non-nil)
// or a loop of Count iterations over Body.
type CanonNode struct {
	Op    *CanonOp
	Count int64
	Body  []CanonNode
}

// CanonSignature is a canonical per-rank program.
type CanonSignature struct {
	NRanks  int
	PerRank [][]CanonNode
}

// WorkEps is the compute-work comparison tolerance: generated source
// carries work as a %.9f literal, so a faithful round trip differs by
// at most half an ulp of the ninth decimal.
const WorkEps = 1e-9

// NormalizeOp maps an operation onto canonical form, keeping only the
// fields meaningful for its kind (mirroring what codegen emits):
// receive sizes are dropped, Alltoallv becomes the uniform Alltoall it
// is emitted as, and waits keep only their request-kind selector.
func NormalizeOp(o CanonOp) CanonOp {
	n := CanonOp{Kind: o.Kind}
	switch o.Kind {
	case mpi.OpCompute:
		n.Work = o.Work
	case mpi.OpSend, mpi.OpIsend:
		n.Peer, n.Tag, n.Bytes = o.Peer, o.Tag, o.Bytes
	case mpi.OpRecv, mpi.OpIrecv:
		n.Peer, n.Tag = o.Peer, o.Tag
	case mpi.OpWait:
		n.Sub = o.Sub
	case mpi.OpWaitall, mpi.OpBarrier:
		// Kind alone.
	case mpi.OpSendrecv:
		n.Peer, n.Peer2, n.Tag, n.Bytes = o.Peer, o.Peer2, o.Tag, o.Bytes
	case mpi.OpBcast, mpi.OpReduce, mpi.OpGather, mpi.OpScatter:
		n.Peer, n.Bytes = o.Peer, o.Bytes
	case mpi.OpAllreduce, mpi.OpAllgather:
		n.Bytes = o.Bytes
	case mpi.OpAlltoall, mpi.OpAlltoallv:
		n.Kind = mpi.OpAlltoall
		n.Bytes = o.Bytes
	default:
		return o
	}
	return n
}

// NormalizeSeq normalizes every op in seq and canonicalizes loop
// structure: zero-count and empty loops vanish, one-count loops are
// spliced into their parent.
func NormalizeSeq(seq []CanonNode) []CanonNode {
	var out []CanonNode
	for _, nd := range seq {
		if nd.Op != nil {
			op := NormalizeOp(*nd.Op)
			out = append(out, CanonNode{Op: &op})
			continue
		}
		body := NormalizeSeq(nd.Body)
		switch {
		case nd.Count <= 0 || len(body) == 0:
			// Contributes nothing.
		case nd.Count == 1:
			out = append(out, body...)
		default:
			out = append(out, CanonNode{Count: nd.Count, Body: body})
		}
	}
	return out
}

// Canon maps a dynamic signature onto canonical form. Message sizes are
// rounded exactly as skeleton construction rounds them.
func Canon(s *Signature) *CanonSignature {
	cs := &CanonSignature{NRanks: s.NRanks}
	for _, seq := range s.PerRank {
		cs.PerRank = append(cs.PerRank, NormalizeSeq(canonDynamic(seq)))
	}
	return cs
}

func canonDynamic(seq []Node) []CanonNode {
	var out []CanonNode
	for _, n := range seq {
		switch x := n.(type) {
		case Leaf:
			c := x.C
			op := CanonOp{
				Kind: c.Op, Sub: c.Sub, Peer: c.Peer, Peer2: c.Peer2, Tag: c.Tag,
				Bytes: int64(math.Round(c.Bytes)), Work: c.Duration,
			}
			out = append(out, CanonNode{Op: &op})
		case *Loop:
			out = append(out, CanonNode{Count: int64(x.Count), Body: canonDynamic(x.Body)})
		}
	}
	return out
}

// Equal reports exact canonical equality (Work within WorkEps).
func (a *CanonSignature) Equal(b *CanonSignature) bool { return a.Diff(b) == "" }

// Diff returns a description of the first mismatch between two
// canonical signatures, or "" when they are equal.
func (a *CanonSignature) Diff(b *CanonSignature) string {
	if a == nil || b == nil {
		if a == b {
			return ""
		}
		return "one signature is absent"
	}
	if a.NRanks != b.NRanks {
		return fmt.Sprintf("rank counts differ: %d vs %d", a.NRanks, b.NRanks)
	}
	for r := 0; r < a.NRanks; r++ {
		if d := diffSeq(a.PerRank[r], b.PerRank[r], fmt.Sprintf("rank %d", r)); d != "" {
			return d
		}
	}
	return ""
}

func diffSeq(a, b []CanonNode, path string) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: sequence lengths differ: %d vs %d (%s vs %s)",
			path, len(a), len(b), seqStr(a), seqStr(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		at := fmt.Sprintf("%s op %d", path, i)
		switch {
		case x.Op != nil && y.Op != nil:
			if !opEqual(*x.Op, *y.Op) {
				return fmt.Sprintf("%s: %s vs %s", at, x.Op, y.Op)
			}
		case x.Op == nil && y.Op == nil:
			if x.Count != y.Count {
				return fmt.Sprintf("%s: loop counts differ: %d vs %d", at, x.Count, y.Count)
			}
			if d := diffSeq(x.Body, y.Body, at+" body"); d != "" {
				return d
			}
		case x.Op != nil:
			return fmt.Sprintf("%s: op %s vs loop x%d", at, x.Op, y.Count)
		default:
			return fmt.Sprintf("%s: loop x%d vs op %s", at, x.Count, y.Op)
		}
	}
	return ""
}

func opEqual(a, b CanonOp) bool {
	return a.Kind == b.Kind && a.Sub == b.Sub && a.Peer == b.Peer &&
		a.Peer2 == b.Peer2 && a.Tag == b.Tag && a.Bytes == b.Bytes &&
		math.Abs(a.Work-b.Work) <= WorkEps
}

func seqStr(seq []CanonNode) string {
	parts := make([]string, 0, len(seq))
	for _, nd := range seq {
		if nd.Op != nil {
			parts = append(parts, nd.Op.String())
		} else {
			parts = append(parts, fmt.Sprintf("[%s]x%d", seqStr(nd.Body), nd.Count))
		}
	}
	return strings.Join(parts, " ")
}

// ScaledDiff reports whether skel is a scaled-down version of app:
// per rank, the communication structure must match once everything
// scaling legitimately changes is abstracted away — loop counts
// (divided by K), adjacent repetitions (groups of K identical
// operations collapse to one), message sizes and compute work
// (parameter adjustment). What must survive scaling untouched is the
// sequence of communication shapes: kind, wait selector, peers, tag.
// It returns a description of the first rank whose shape diverges, or
// "" when skel is a scaled-down version of app.
func ScaledDiff(app, skel *CanonSignature) string {
	if app == nil || skel == nil {
		if app == skel {
			return ""
		}
		return "one signature is absent"
	}
	if app.NRanks != skel.NRanks {
		return fmt.Sprintf("rank counts differ: %d vs %d", app.NRanks, skel.NRanks)
	}
	for r := 0; r < app.NRanks; r++ {
		a := commShape(app.PerRank[r])
		b := commShape(skel.PerRank[r])
		if !stringsEqual(a, b) {
			return fmt.Sprintf("rank %d: scaled shapes differ:\n  app:  %s\n  skel: %s",
				r, strings.Join(a, " "), strings.Join(b, " "))
		}
	}
	return ""
}

// commShape reduces a canonical sequence to its scale-invariant
// communication shape: loops contribute one body copy, compute is
// dropped, and leftmost tandem repeats are collapsed to a fixpoint (so
// an unrolled remainder equals its folded original).
func commShape(seq []CanonNode) []string {
	return collapseRepeats(commKeys(seq))
}

func commKeys(seq []CanonNode) []string {
	var out []string
	for _, nd := range seq {
		if nd.Op == nil {
			out = append(out, collapseRepeats(commKeys(nd.Body))...)
			continue
		}
		if nd.Op.Kind == mpi.OpCompute {
			continue
		}
		out = append(out, CanonKey(*nd.Op))
	}
	return out
}

// CanonKey renders the scale-invariant communication identity of a
// canonical op — kind, wait selector, peers and tag, excluding message
// size and compute work — exactly as the scaled-shape comparison keys
// it. Producers that need to refer to "the same communication slot"
// across signatures (static byte cross-validation, placeholder
// exclusion lists) share this format.
func CanonKey(o CanonOp) string {
	return fmt.Sprintf("%v/%d/%d/%d/%d", o.Kind, int(o.Sub), o.Peer, o.Peer2, o.Tag)
}

func collapseRepeats(seq []string) []string {
	for {
		i, l, ok := findRepeat(seq)
		if !ok {
			return seq
		}
		next := make([]string, 0, len(seq)-l)
		next = append(next, seq[:i+l]...)
		next = append(next, seq[i+2*l:]...)
		seq = next
	}
}

// findRepeat locates the leftmost, shortest tandem repeat
// seq[i:i+l] == seq[i+l:i+2l].
func findRepeat(seq []string) (int, int, bool) {
	for i := 0; i < len(seq); i++ {
		for l := 1; i+2*l <= len(seq); l++ {
			if stringsEqual(seq[i:i+l], seq[i+l:i+2*l]) {
				return i, l, true
			}
		}
	}
	return 0, 0, false
}

func stringsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
