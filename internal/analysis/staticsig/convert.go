package staticsig

import (
	"fmt"
	"go/token"
	"math"
	"sort"
	"strings"

	"perfskel/internal/analysis/commgraph"
	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/signature"
)

type clusterKey struct {
	kind, sub        mpi.Op
	peer, peer2, tag int
	bytes            int64
	hasBytes         bool
	work             uint64 // Float64bits of the compute work
	approx           bool
}

type converted struct {
	sig             *signature.Signature
	placeholders    []string
	placeholderKeys map[string]bool
}

// Lower lowers an extracted communication automaton to an execution
// signature. It is the one machine-to-signature lowering: static
// synthesis (Instantiate) and generated-source verification (skelvet
// -verify-signature, the codegen gate, through signature.Canon) both go
// through it. A machine with Approx notes is rejected: an automaton
// that elides operations must not masquerade as a signature.
//
// Clustering is exact: every distinct operation identity (kind, peers,
// tag, bytes, work) becomes one cluster, numbered in first-encounter
// order (rank 0 first, depth-first), so the result is
// byte-deterministic for a given machine.
//
// Durations are the one place the static path estimates rather than
// derives: compute clusters carry the model's work value (a
// dominant-factor estimate where the source perturbs it), and
// communication clusters carry latency + bytes/bandwidth under the
// testbed's dedicated link. Those estimates feed only coarse time
// accounting — AppTime, MinGoodTime, K-for-target-time — never the
// structure the skeleton is generated from.
func Lower(m *commgraph.Machine, fset *token.FileSet) (*signature.Signature, error) {
	c, err := convert(m, fset)
	if err != nil {
		return nil, err
	}
	return c.sig, nil
}

// convert is Lower plus the record of what stays a placeholder.
func convert(m *commgraph.Machine, fset *token.FileSet) (*converted, error) {
	if len(m.Approx) > 0 {
		return nil, fmt.Errorf("extraction is approximate:\n  %s", strings.Join(m.Approx, "\n  "))
	}
	index := map[clusterKey]*signature.Cluster{}
	noted := map[clusterKey]bool{}
	c := &converted{placeholderKeys: map[string]bool{}}
	var clusters []*signature.Cluster

	lookup := func(op *commgraph.Op) *signature.Cluster {
		key := clusterKey{
			kind: op.Kind, sub: op.Sub, peer: op.Peer, peer2: op.Peer2, tag: op.Tag,
			bytes: op.Bytes, hasBytes: op.HasBytes,
			work: math.Float64bits(op.Work), approx: op.WorkApprox,
		}
		if cl, ok := index[key]; ok {
			return cl
		}
		cl := &signature.Cluster{
			ID: len(clusters), Op: op.Kind, Sub: op.Sub,
			Peer: op.Peer, Peer2: op.Peer2, Tag: op.Tag,
			Duration: opDuration(op),
		}
		if op.HasBytes {
			cl.Bytes = float64(op.Bytes)
			if op.Kind == mpi.OpSendrecv {
				// The interpreter evaluates the symmetric exchange size; the
				// models send and receive equal faces.
				cl.Byte2 = cl.Bytes
			}
		}
		index[key] = cl
		clusters = append(clusters, cl)
		if !noted[key] {
			noted[key] = true
			c.note(op, fset)
		}
		return cl
	}

	// seq lowers one rank's nodes, each repeated mult times; pos is the
	// innermost enclosing loop, or the loop whose count first pushed
	// mult past maxLoopCount. mult saturates there, so the rank's
	// expanded operation count (ops) cannot overflow before it is
	// rejected.
	var ops int64
	var seq func(nodes []commgraph.Node, mult int64, pos token.Pos) ([]signature.Node, error)
	seq = func(nodes []commgraph.Node, mult int64, pos token.Pos) ([]signature.Node, error) {
		var out []signature.Node
		for _, nd := range nodes {
			if nd.Op != nil {
				if ops += mult; ops > maxLoopCount {
					return nil, fmt.Errorf("loop at %s expands a rank past %d operations", fset.Position(pos), maxLoopCount)
				}
				cl := lookup(nd.Op)
				cl.Count += int(mult)
				out = append(out, signature.Leaf{C: cl})
				continue
			}
			if nd.Count <= 0 {
				continue
			}
			inner, at := int64(maxLoopCount+1), nd.Pos
			switch {
			case mult > maxLoopCount:
				at = pos
			case nd.Count <= maxLoopCount/mult:
				inner = mult * nd.Count
			}
			body, err := seq(nd.Body, inner, at)
			if err != nil {
				return nil, err
			}
			if len(body) == 0 {
				continue
			}
			out = append(out, signature.NewLoop(int(nd.Count), body))
		}
		return out, nil
	}

	sig := &signature.Signature{NRanks: m.NRanks, Threshold: 0, TargetMet: true}
	for _, rank := range m.Ranks {
		ops = 0
		nodes, err := seq(rank, 1, m.Pos)
		if err != nil {
			return nil, err
		}
		sig.PerRank = append(sig.PerRank, nodes)
		sig.TraceEvents += int(ops)
	}
	sig.Clusters = clusters
	sig.AppTime = maxRankTime(sig)
	if n := sig.Len(); n > 0 {
		sig.Ratio = float64(sig.TraceEvents) / float64(n)
	}
	if sig.TraceEvents == 0 {
		return nil, fmt.Errorf("program performs no operations")
	}
	c.sig = sig
	sort.Strings(c.placeholders)
	return c, nil
}

// maxLoopCount bounds each rank's expanded operation count, and so
// every folded loop count, at the int range signature loops and
// cluster counts use, far above any model's operation count.
const maxLoopCount = 1 << 30

// note records what stays a placeholder at op's site.
func (c *converted) note(op *commgraph.Op, fset *token.FileSet) {
	switch {
	case op.Kind == mpi.OpCompute && !op.HasWork:
		c.placeholders = append(c.placeholders,
			fmt.Sprintf("compute at %s: work unresolved, placeholder 0 (calibratable)", fset.Position(op.Pos)))
	case op.Kind == mpi.OpCompute && op.WorkApprox:
		c.placeholders = append(c.placeholders,
			fmt.Sprintf("compute at %s: work %.3g is a dominant-factor estimate (mean-one perturbation dropped; calibratable)",
				fset.Position(op.Pos), op.Work))
	case op.Kind != mpi.OpCompute && !op.HasBytes && kindCarriesBytes(op.Kind):
		key := signature.CanonKey(signature.NormalizeOp(op.Canon()))
		c.placeholderKeys[key] = true
		c.placeholders = append(c.placeholders,
			fmt.Sprintf("%v at %s: message volume unresolved; bytes excluded from cross-validation",
				op.Kind, fset.Position(op.Pos)))
	}
}

// kindCarriesBytes reports whether the canonical form retains a byte
// volume for this op kind (receives drop theirs, waits and barriers
// have none).
func kindCarriesBytes(k mpi.Op) bool {
	switch k {
	case mpi.OpSend, mpi.OpIsend, mpi.OpSendrecv, mpi.OpBcast, mpi.OpReduce,
		mpi.OpGather, mpi.OpScatter, mpi.OpAllreduce, mpi.OpAllgather,
		mpi.OpAlltoall, mpi.OpAlltoallv:
		return true
	}
	return false
}

// opDuration estimates one operation's dedicated duration: compute ops
// carry the model's work, communication a latency + bytes/bandwidth
// term under the testbed's Gigabit link.
func opDuration(op *commgraph.Op) float64 {
	if op.Kind == mpi.OpCompute {
		return op.Work
	}
	d := cluster.DefaultLatency
	if op.HasBytes {
		d += float64(op.Bytes) / cluster.GigabitBandwidth
	}
	return d
}
