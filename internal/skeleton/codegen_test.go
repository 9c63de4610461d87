package skeleton

import (
	"fmt"
	"strings"
	"testing"

	"perfskel/internal/analysis"
	"perfskel/internal/analysis/commgraph"
	"perfskel/internal/analysis/staticsig"
	"perfskel/internal/mpi"
	"perfskel/internal/signature"
)

// gateLoader is shared across the codegen gate tests: building a loader
// typechecks the module and the stdlib from source once, which is the
// expensive part.
var gateLoader *analysis.Loader

// gateGoSource is the codegen quality gate: generated Go source must
// parse, typecheck against the real perfskel API, come back clean from
// every skelvet rule, and — the static-signature gate — the execution
// signature recovered from the source text by symbolic execution must
// equal the program it was generated from, operation for operation.
// Returning text that merely "looks like Go" is not enough to close
// the loop from trace to replayable program. The recovered canonical
// signature is returned for further checks against the dynamic
// signature.
func gateGoSource(t *testing.T, name, src string, p *Program) *signature.CanonSignature {
	t.Helper()
	if gateLoader == nil {
		l, err := analysis.NewLoader(".")
		if err != nil {
			t.Fatalf("analysis loader: %v", err)
		}
		gateLoader = l
	}
	pkg, err := gateLoader.LoadSource(name+".go", src)
	if err != nil {
		t.Fatalf("%s: generated source does not typecheck: %v", name, err)
	}
	for _, d := range analysis.Check(pkg, analysis.All()) {
		t.Errorf("%s: skelvet finding in generated source: %s", name, d)
	}

	machines := commgraph.Extract(commgraph.Source{Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info})
	if len(machines) != 1 {
		t.Fatalf("%s: extracted %d communication machines from generated source, want 1", name, len(machines))
	}
	lowered, err := staticsig.Lower(&machines[0], pkg.Fset)
	if err != nil {
		t.Fatalf("%s: no static signature recovered: %v", name, err)
	}
	got := signature.Canon(lowered)
	if d := Canon(p).Diff(got); d != "" {
		t.Errorf("%s: static signature from source differs from skeleton program: %s", name, d)
	}
	return got
}

func codegenProgram(t *testing.T) *Program {
	t.Helper()
	sig := traceAndSign(t, 2, 5, iterApp)
	p, err := Build(sig, 10)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCSourceStructure(t *testing.T) {
	p := codegenProgram(t)
	src := CSource(p)
	for _, want := range []string{
		"#include <mpi.h>",
		"MPI_Init",
		"MPI_Finalize",
		"static void skel_rank0(void)",
		"static void skel_rank1(void)",
		"skel_compute(",
		"MPI_Sendrecv(",
		"MPI_Allreduce(",
		"#define SKEL_RANKS 2",
		"for (int i0 = 0; i0 < 10; i0++)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("C source missing %q", want)
		}
	}
	// Braces must balance.
	if o, c := strings.Count(src, "{"), strings.Count(src, "}"); o != c {
		t.Errorf("unbalanced braces: %d open, %d close", o, c)
	}
}

func TestCSourceBufferCoversLargestMessage(t *testing.T) {
	p := codegenProgram(t)
	src := CSource(p)
	if !strings.Contains(src, "#define SKEL_BUF") {
		t.Fatal("no buffer size define")
	}
	// The iterApp exchanges 50000-byte messages; the buffer must be at
	// least that large. Extract the define.
	var size int64
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(line, "#define SKEL_BUF") {
			fields := strings.Fields(line)
			for i := len(fields[2]) - 1; i >= 0; i-- {
				if fields[2][i] < '0' || fields[2][i] > '9' {
					t.Fatalf("unparseable buffer size %q", fields[2])
				}
			}
			for _, ch := range fields[2] {
				size = size*10 + int64(ch-'0')
			}
		}
	}
	if size < 50000 {
		t.Errorf("buffer size %d smaller than largest message", size)
	}
}

func TestGoSourceStructure(t *testing.T) {
	p := codegenProgram(t)
	src := GoSource(p)
	for _, want := range []string{
		"package main",
		"perfskel.NewTestbed(2",
		"c.Sendrecv(",
		"c.Allreduce(",
		"case 0:",
		"case 1:",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("Go source missing %q", want)
		}
	}
	if o, c := strings.Count(src, "{"), strings.Count(src, "}"); o != c {
		t.Errorf("unbalanced braces: %d open, %d close", o, c)
	}
}

func TestCSourceCoversEveryOpKind(t *testing.T) {
	// The handcrafted all-ops program from the executor test must render
	// every operation without "unsupported" placeholders.
	p := &Program{NRanks: 2, K: 1, PerRank: [][]Node{allOpsSeq(0), allOpsSeq(1)}}
	src := CSource(p)
	if strings.Contains(src, "unsupported") {
		t.Error("C source contains unsupported ops")
	}
	for _, want := range []string{
		"MPI_Send(", "MPI_Recv(", "MPI_Isend(", "MPI_Irecv(",
		"skel_wait_kind(", "skel_waitall()", "MPI_Barrier(",
		"MPI_Bcast(", "MPI_Reduce(", "MPI_Allreduce(", "MPI_Alltoall(",
		"MPI_Allgather(", "MPI_Gather(", "MPI_Scatter(",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("C source missing %q", want)
		}
	}
	gosrc := GoSource(p)
	if strings.Contains(gosrc, "unsupported") {
		t.Error("Go source contains unsupported ops")
	}
}

func allOpsSeq(rank int) []Node {
	peer := 1 - rank
	return []Node{
		OpNode{Op: Op{Kind: mpi.OpCompute, Work: 0.001}},
		OpNode{Op: Op{Kind: mpi.OpSend, Peer: peer, Tag: 1, Bytes: 100}},
		OpNode{Op: Op{Kind: mpi.OpRecv, Peer: peer, Tag: 1}},
		OpNode{Op: Op{Kind: mpi.OpIsend, Peer: peer, Tag: 2, Bytes: 100}},
		OpNode{Op: Op{Kind: mpi.OpIrecv, Peer: peer, Tag: 2}},
		OpNode{Op: Op{Kind: mpi.OpWait, Sub: mpi.OpIrecv}},
		OpNode{Op: Op{Kind: mpi.OpWait, Sub: mpi.OpIsend}},
		OpNode{Op: Op{Kind: mpi.OpWaitall}},
		OpNode{Op: Op{Kind: mpi.OpSendrecv, Peer: peer, Peer2: peer, Tag: 3, Bytes: 10, Byte2: 10}},
		OpNode{Op: Op{Kind: mpi.OpBarrier}},
		OpNode{Op: Op{Kind: mpi.OpBcast, Peer: 0, Bytes: 8}},
		OpNode{Op: Op{Kind: mpi.OpReduce, Peer: 0, Bytes: 8}},
		OpNode{Op: Op{Kind: mpi.OpAllreduce, Bytes: 8}},
		OpNode{Op: Op{Kind: mpi.OpAlltoall, Bytes: 8}},
		OpNode{Op: Op{Kind: mpi.OpAllgather, Bytes: 8}},
		OpNode{Op: Op{Kind: mpi.OpGather, Peer: 0, Bytes: 8}},
		OpNode{Op: Op{Kind: mpi.OpScatter, Peer: 0, Bytes: 8}},
	}
}

func TestGeneratedSourcesTypecheckAndPassSkelvet(t *testing.T) {
	// A stray verb mismatch would leave "%!" markers in the output; the
	// Go source additionally has to typecheck against the perfskel API
	// and survive the full static-analysis rule set.
	sig := traceAndSign(t, 2, 5, iterApp)
	for _, k := range []int{1, 7, 500} {
		p, err := Build(sig, k)
		if err != nil {
			t.Fatal(err)
		}
		gosrc := GoSource(p)
		for name, src := range map[string]string{"C": CSource(p), "Go": gosrc} {
			if strings.Contains(src, "%!") {
				t.Errorf("K=%d %s source contains formatting errors", k, name)
			}
		}
		static := gateGoSource(t, fmt.Sprintf("iter_k%d", k), gosrc, p)
		// Up-to-K equivalence closes the chain signature -> skeleton ->
		// source -> static signature: the shape recovered from the source
		// text must be a scaled-down version of the dynamic signature.
		if d := signature.ScaledDiff(signature.Canon(sig), static); d != "" {
			t.Errorf("K=%d: static signature is not a scaled version of the dynamic signature: %s", k, d)
		}
	}
}

func TestAllOpsGoSourcePassesSkelvet(t *testing.T) {
	// The handcrafted program exercises every op kind, including the
	// nonblocking send/recv plus wait/waitall pairs the unwaited-request
	// rule tracks through the generated helper functions.
	p := &Program{NRanks: 2, K: 1, PerRank: [][]Node{allOpsSeq(0), allOpsSeq(1)}}
	gateGoSource(t, "allops", GoSource(p), p)
}

func TestCodegenOfRescaledProgram(t *testing.T) {
	app := func(c *mpi.Comm) {
		n, r := c.Size(), c.Rank()
		for i := 0; i < 20; i++ {
			c.Compute(0.01)
			c.Sendrecv((r+1)%n, 5000, (r-1+n)%n, 1)
			c.Allreduce(8)
		}
	}
	sig := traceAndSign(t, 4, 5, app)
	p, err := Build(sig, 4)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := Rescale(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	src := CSource(p8)
	if !strings.Contains(src, "#define SKEL_RANKS 8") {
		t.Error("rescaled C source has wrong rank count")
	}
	if o, c := strings.Count(src, "{"), strings.Count(src, "}"); o != c {
		t.Errorf("unbalanced braces in rescaled source: %d vs %d", o, c)
	}
	for r := 0; r < 8; r++ {
		if !strings.Contains(src, fmt.Sprintf("static void skel_rank%d(void)", r)) {
			t.Errorf("missing rank %d function", r)
		}
	}
	gateGoSource(t, "rescaled8", GoSource(p8), p8)
}
