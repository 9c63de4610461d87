// Package commgraph extracts per-rank communication automata from
// perfskel programs by abstract interpretation and model-checks their
// composition.
//
// The extractor (Extract) discovers entry points — `env.Run(P, app)` /
// `env.Trace(P, app)` calls with a constant rank count, plus standalone
// functions that switch exhaustively on a constant rank — and
// symbolically executes each rank's program under a concrete (rank,
// size) specialization using internal/analysis/symexec. The result is a
// Machine: per rank, a sequence of communication/compute edges with
// evaluated peer/tag/byte arguments (states are the program points
// between them), with loop structure preserved when the body is
// environment-invariant. Constructs the interpreter cannot resolve are
// recorded as Approx notes; an approximate machine is never
// model-checked, so the matcher only ever reasons about programs it
// fully understands.
//
// The matcher (Match) composes the P automata and explores the joint
// matching state space under the runtime's eager/rendezvous semantics
// (mpi.DefaultEagerThreshold); see match.go.
package commgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"perfskel/internal/mpi"
)

// Source is the input to extraction: one parsed, type-checked package.
// It mirrors analysis.Package without importing it (the analysis
// package depends on this one).
type Source struct {
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
}

// Op is one edge of a rank's communication automaton: a communication
// or compute operation with arguments evaluated under the rank's
// specialization. HasX flags record which arguments evaluated; an op
// whose matcher-relevant arguments are unknown poisons the machine
// (see Machine.Approx).
type Op struct {
	Kind  mpi.Op
	Sub   mpi.Op // for OpWait: kind of the request waited on (0 = oldest any)
	Peer  int    // dst/src/root; mpi.AnySource for wildcard receives
	Peer2 int    // Sendrecv receive source
	Tag   int    // mpi.AnyTag for wildcard receives
	Bytes int64
	Work  float64

	HasPeer  bool
	HasPeer2 bool
	HasTag   bool
	HasBytes bool
	HasWork  bool
	// WorkApprox marks a compute Work value estimated by dominant-factor
	// evaluation (mean-one perturbation factors treated as 1.0) rather
	// than resolved exactly: an estimate, not a proof.
	WorkApprox bool

	Sym string // symbolic argument rendering, e.g. "dst=(rank+1)%size"
	Pos token.Pos
}

// MatchReady reports whether every argument the matcher needs for this
// op kind is known.
func (o *Op) MatchReady() bool {
	switch o.Kind {
	case mpi.OpSend, mpi.OpIsend:
		return o.HasPeer && o.HasTag && o.HasBytes
	case mpi.OpRecv, mpi.OpIrecv:
		return o.HasPeer && o.HasTag
	case mpi.OpSendrecv:
		return o.HasPeer && o.HasPeer2 && o.HasTag && o.HasBytes
	case mpi.OpBcast, mpi.OpReduce, mpi.OpGather, mpi.OpScatter:
		return o.HasPeer
	default:
		return true
	}
}

// String renders the op for diagnostics: kind plus the symbolic or
// concrete arguments.
func (o *Op) String() string {
	if o.Sym != "" {
		return fmt.Sprintf("%s(%s)", o.Kind, o.Sym)
	}
	return o.Kind.String()
}

// Node is one element of a rank's program: a leaf op, or a counted
// loop over a body. Pos is a loop's for keyword.
type Node struct {
	Op    *Op
	Count int64
	Body  []Node
	Pos   token.Pos
}

// Machine is the extracted automaton product for one entry point: one
// rank program per rank. Approx lists the constructs extraction could
// not resolve; a machine with Approx notes is dumped but never matched.
type Machine struct {
	Name   string
	Pos    token.Pos
	NRanks int
	Ranks  [][]Node
	Approx []string
}

// Dump renders the machine as indented text for `skelvet -commgraph`.
func (m *Machine) Dump(fset *token.FileSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine %s (%d ranks) at %s\n", m.Name, m.NRanks, fset.Position(m.Pos))
	for _, note := range m.Approx {
		fmt.Fprintf(&b, "  approx: %s\n", note)
	}
	var walk func(seq []Node, indent string)
	walk = func(seq []Node, indent string) {
		for _, nd := range seq {
			if nd.Op != nil {
				fmt.Fprintf(&b, "%s%s\n", indent, nd.Op)
			} else {
				fmt.Fprintf(&b, "%sloop x%d {\n", indent, nd.Count)
				walk(nd.Body, indent+"  ")
				fmt.Fprintf(&b, "%s}\n", indent)
			}
		}
	}
	for r, seq := range m.Ranks {
		fmt.Fprintf(&b, "  rank %d:\n", r)
		walk(seq, "    ")
	}
	return b.String()
}
