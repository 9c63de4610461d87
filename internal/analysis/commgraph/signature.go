package commgraph

import (
	"perfskel/internal/signature"
)

// StaticSignature maps the machine onto the canonical signature form
// (signature.CanonSignature), recovering an execution signature from
// source code alone. It returns nil when extraction was approximate:
// an automaton that elides operations must not masquerade as a
// signature.
func (m *Machine) StaticSignature() *signature.CanonSignature {
	if len(m.Approx) > 0 {
		return nil
	}
	cs := &signature.CanonSignature{NRanks: m.NRanks}
	for _, seq := range m.Ranks {
		cs.PerRank = append(cs.PerRank, signature.NormalizeSeq(canonNodes(seq)))
	}
	return cs
}

func canonNodes(seq []Node) []signature.CanonNode {
	var out []signature.CanonNode
	for _, nd := range seq {
		if nd.Op != nil {
			op := nd.Op.Canon()
			out = append(out, signature.CanonNode{Op: &op})
			continue
		}
		out = append(out, signature.CanonNode{Count: nd.Count, Body: canonNodes(nd.Body)})
	}
	return out
}

// Canon maps the op onto its canonical signature form.
func (o *Op) Canon() signature.CanonOp {
	return signature.CanonOp{
		Kind: o.Kind, Sub: o.Sub, Peer: o.Peer, Peer2: o.Peer2,
		Tag: o.Tag, Bytes: o.Bytes, Work: o.Work,
	}
}
