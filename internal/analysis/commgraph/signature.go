package commgraph

import (
	"perfskel/internal/signature"
)

// Canon maps the op onto its canonical signature form.
func (o *Op) Canon() signature.CanonOp {
	return signature.CanonOp{
		Kind: o.Kind, Sub: o.Sub, Peer: o.Peer, Peer2: o.Peer2,
		Tag: o.Tag, Bytes: o.Bytes, Work: o.Work,
	}
}
