package signature

import (
	"cmp"
	"fmt"
	"slices"

	"perfskel/internal/mpi"
)

// Pattern is the deadlock rule shared by signatures and skeleton
// programs. A tree walk records each rank's operations with their loop
// multiplicity; Check then requires that, once loops are expanded,
//
//   - every rank performs the same sequence of collective operations
//     (collectives must be called by all ranks in matching order), as
//     identified by C;
//   - for every (source, destination, tag) triple, the number of send
//     operations equals the number of receive operations.
//
// Receives with wildcard source or tag cannot be matched statically; if
// any are present, only the collective check is performed.
type Pattern[C comparable] struct {
	colls        [][]C // per rank: expanded collective sequence
	sends, recvs map[p2pKey]int
	wildcards    bool
}

type p2pKey struct {
	src, dst, tag int
}

// NewPattern returns an empty pattern over nranks ranks.
func NewPattern[C comparable](nranks int) *Pattern[C] {
	return &Pattern[C]{
		colls: make([][]C, nranks),
		sends: make(map[p2pKey]int),
		recvs: make(map[p2pKey]int),
	}
}

// Op records that rank performs one operation mult times. coll
// identifies the call when kind is a collective and is ignored
// otherwise.
func (p *Pattern[C]) Op(rank, mult int, kind mpi.Op, peer, peer2, tag int, coll C) {
	switch {
	case kind.IsCollective():
		p.colls[rank] = append(p.colls[rank], coll)
	case kind == mpi.OpSend || kind == mpi.OpIsend:
		p.sends[p2pKey{src: rank, dst: peer, tag: tag}] += mult
	case kind == mpi.OpRecv || kind == mpi.OpIrecv:
		if peer == mpi.AnySource || tag == mpi.AnyTag {
			p.wildcards = true
		} else {
			p.recvs[p2pKey{src: peer, dst: rank, tag: tag}] += mult
		}
	case kind == mpi.OpSendrecv:
		p.sends[p2pKey{src: rank, dst: peer, tag: tag}] += mult
		p.recvs[p2pKey{src: peer2, dst: rank, tag: tag}] += mult
	}
}

// Mark returns where the body of a loop about to be walked starts in
// rank's collective sequence.
func (p *Pattern[C]) Mark(rank int) int { return len(p.colls[rank]) }

// Repeat closes a loop of count iterations whose body was recorded once
// since mark. Point-to-point counts already carry the loop multiplicity;
// the collective sub-sequence of one iteration is repeated.
func (p *Pattern[C]) Repeat(rank, mark, count int) {
	coll := p.colls[rank]
	body := coll[mark:]
	for i := 1; i < count; i++ {
		coll = append(coll, body...)
	}
	p.colls[rank] = coll
}

// Check applies the rule to the recorded pattern. It reports the first
// collective mismatch against rank 0, else the send/receive mismatch of
// the smallest (source, destination, tag), so the error is the same on
// every run.
func (p *Pattern[C]) Check() error {
	for r := 1; r < len(p.colls); r++ {
		c0, cr := p.colls[0], p.colls[r]
		if len(cr) != len(c0) {
			return fmt.Errorf("rank %d performs %d collective calls, rank 0 %d", r, len(cr), len(c0))
		}
		for i := range c0 {
			if cr[i] != c0[i] {
				return fmt.Errorf("collective call %d differs: rank 0 %v, rank %d %v", i, c0[i], r, cr[i])
			}
		}
	}
	if p.wildcards {
		return nil // point-to-point matching cannot be checked statically
	}
	keys := make([]p2pKey, 0, len(p.sends)+len(p.recvs))
	for k := range p.sends {
		keys = append(keys, k)
	}
	for k := range p.recvs {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b p2pKey) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst), cmp.Compare(a.tag, b.tag))
	})
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			continue
		}
		if ns, nr := p.sends[k], p.recvs[k]; ns != nr {
			if ns > 0 {
				return fmt.Errorf("%d sends %d->%d tag %d but %d receives", ns, k.src, k.dst, k.tag, nr)
			}
			return fmt.Errorf("%d receives %d->%d tag %d but %d sends", nr, k.src, k.dst, k.tag, ns)
		}
	}
	return nil
}

// Consistent reports whether the per-rank sequences describe a mutually
// consistent communication pattern (see Pattern). A collective is
// identified by its cluster: a cluster of jittered collective calls
// split differently across ranks would desynchronise the skeleton's
// collective tag sequence.
//
// A signature that fails this check would generate a performance skeleton
// whose ranks deadlock. The threshold search in Build therefore skips
// inconsistent thresholds.
func (s *Signature) Consistent() error {
	p := NewPattern[*Cluster](s.NRanks)
	for rank, seq := range s.PerRank {
		var walk func(seq []Node, mult int)
		walk = func(seq []Node, mult int) {
			for _, nd := range seq {
				switch x := nd.(type) {
				case *Loop:
					mark := p.Mark(rank)
					walk(x.Body, mult*x.Count)
					p.Repeat(rank, mark, x.Count)
				case Leaf:
					c := x.C
					p.Op(rank, mult, c.Op, c.Peer, c.Peer2, c.Tag, c)
				}
			}
		}
		walk(seq, 1)
	}
	if err := p.Check(); err != nil {
		return fmt.Errorf("signature: %w", err)
	}
	return nil
}
