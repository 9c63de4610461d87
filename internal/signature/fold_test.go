package signature

import (
	"fmt"
	"math/rand"
	"testing"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/nas"
	"perfskel/internal/trace"
)

// compressReference is compress over foldReference.
func compressReference(seq []*Cluster, maxBody int) []Node {
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	out := make([]Node, 0, 64)
	for _, c := range seq {
		out = append(out, Leaf{C: c})
		out = foldReference(out, maxBody)
	}
	return out
}

// foldReference is the direct form of the folder: for window lengths
// from 1 up to maxBody it runs rule 1, then rule 2, on every window,
// with no hash filter. compress must reproduce it node for node.
func foldReference(out []Node, maxBody int) []Node {
	for {
		n := len(out)
		// Rule 3: adjacent loops over the same body merge.
		if n >= 2 {
			if a, ok := out[n-2].(*Loop); ok {
				if b, ok2 := out[n-1].(*Loop); ok2 && sameBody(a.Body, b.Body) {
					out = append(out[:n-2], NewLoop(a.Count+b.Count, a.Body))
					continue
				}
			}
		}
		fired := false
		for l := 1; l <= maxBody; l++ {
			// Rule 1: the tail window repeats the body of the loop node
			// immediately before it.
			if n >= l+1 {
				if lp, ok := out[n-l-1].(*Loop); ok && len(lp.Body) == l && sameBody(out[n-l:], lp.Body) {
					out = append(out[:n-l-1], NewLoop(lp.Count+1, lp.Body))
					fired = true
					break
				}
			}
			// Rule 2: two adjacent equal windows at the tail become a new
			// loop.
			if n >= 2*l && sameBody(out[n-2*l:n-l], out[n-l:]) {
				body := make([]Node, l)
				copy(body, out[n-l:])
				out = append(out[:n-2*l], NewLoop(2, body))
				fired = true
				break
			}
			if n < l+1 && n < 2*l {
				break // no longer window can match
			}
		}
		if !fired {
			return out
		}
	}
}

// diffNodes returns a description of the first difference between two
// folded sequences — in loop counts, nesting or leaf clusters — or "".
func diffNodes(path string, got, want []Node) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d nodes, want %d", path, len(got), len(want))
	}
	for i := range want {
		p := fmt.Sprintf("%s[%d]", path, i)
		switch w := want[i].(type) {
		case Leaf:
			g, ok := got[i].(Leaf)
			if !ok || g.C != w.C {
				return fmt.Sprintf("%s: %v, want leaf %v", p, got[i], w)
			}
		case *Loop:
			g, ok := got[i].(*Loop)
			if !ok {
				return fmt.Sprintf("%s: %v, want a loop", p, got[i])
			}
			if g.Count != w.Count {
				return fmt.Sprintf("%s: count %d, want %d", p, g.Count, w.Count)
			}
			if d := diffNodes(p, g.Body, w.Body); d != "" {
				return d
			}
			if g.Hash() != w.Hash() {
				return fmt.Sprintf("%s: hash %x, want %x", p, g.Hash(), w.Hash())
			}
		}
	}
	return ""
}

// nestedSeq draws a sequence with nested repetition: a random body of
// leaves and smaller nested sequences, repeated a random number of times.
func nestedSeq(rng *rand.Rand, alphabet []*Cluster, depth int) []*Cluster {
	var body []*Cluster
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		if depth > 0 && rng.Intn(3) == 0 {
			body = append(body, nestedSeq(rng, alphabet, depth-1)...)
		} else {
			body = append(body, alphabet[rng.Intn(len(alphabet))])
		}
	}
	var out []*Cluster
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		out = append(out, body...)
	}
	return out
}

func TestCompressMatchesFoldReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var inputs [][]*Cluster
	for _, size := range []int{1, 2, 3, 5} {
		alphabet := make([]*Cluster, size)
		for i := range alphabet {
			alphabet[i] = &Cluster{ID: i}
		}
		for trial := 0; trial < 60; trial++ {
			var seq []*Cluster
			switch trial % 3 {
			case 0: // uniform noise over the alphabet
				for i, n := 0, 1+rng.Intn(300); i < n; i++ {
					seq = append(seq, alphabet[rng.Intn(size)])
				}
			default: // concatenated nested repetitions, so loops nest and merge
				for len(seq) < 400 {
					seq = append(seq, nestedSeq(rng, alphabet, 3)...)
				}
			}
			inputs = append(inputs, seq)
		}
	}
	for i, seq := range inputs {
		for _, maxBody := range []int{1, 2, 5, 128} {
			got, want := compress(seq, maxBody), compressReference(seq, maxBody)
			if d := diffNodes("seq", got, want); d != "" {
				t.Fatalf("input %d (%d symbols), maxBody %d: %s", i, len(seq), maxBody, d)
			}
		}
	}
}

func TestCompressMatchesFoldReferenceOnTraces(t *testing.T) {
	for _, name := range []string{"MG", "LU"} {
		app, err := nas.App(name, nas.ClassS)
		if err != nil {
			t.Fatal(err)
		}
		const ranks = 4
		cl := cluster.Build(cluster.Testbed(ranks), cluster.Dedicated())
		rec := trace.NewRecorder(ranks)
		dur, err := mpi.Run(cl, ranks, mpi.Config{}, rec, app)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBuilder(rec.Finish(dur))
		if err != nil {
			t.Fatal(err)
		}
		for _, threshold := range []float64{0, 0.005} {
			b.cluster(threshold)
			for rank, seq := range b.assign {
				got, want := compress(seq, 0), compressReference(seq, 0)
				if d := diffNodes("seq", got, want); d != "" {
					t.Fatalf("%s threshold %v rank %d: %s", name, threshold, rank, d)
				}
			}
		}
	}
}
