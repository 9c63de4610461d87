package skeleton

import (
	"perfskel/internal/signature"
)

// Canon maps a skeleton program onto the canonical signature form
// (signature.CanonSignature). The codegen gate requires Canon(p) to
// equal signature.Canon of the signature staticsig.Lower recovers from
// GoSource(p), proving the emitted program performs exactly the
// operations the skeleton prescribes.
func Canon(p *Program) *signature.CanonSignature {
	cs := &signature.CanonSignature{NRanks: p.NRanks}
	for _, seq := range p.PerRank {
		cs.PerRank = append(cs.PerRank, signature.NormalizeSeq(canonNodes(seq)))
	}
	return cs
}

func canonNodes(seq []Node) []signature.CanonNode {
	var out []signature.CanonNode
	for _, nd := range seq {
		switch x := nd.(type) {
		case OpNode:
			op := signature.CanonOp{
				Kind: x.Op.Kind, Sub: x.Op.Sub, Peer: x.Op.Peer, Peer2: x.Op.Peer2,
				Tag: x.Op.Tag, Bytes: x.Op.Bytes, Work: x.Op.Work,
			}
			out = append(out, signature.CanonNode{Op: &op})
		case LoopNode:
			out = append(out, signature.CanonNode{Count: int64(x.Count), Body: canonNodes(x.Body)})
		}
	}
	return out
}
