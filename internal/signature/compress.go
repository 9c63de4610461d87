package signature

// Loop detection: repeated sub-sequences of the clustered event stream are
// folded into Loop nodes, recursively, so that e.g. the paper's example
//
//	a b b c b b c b b c k a a   becomes   a [(b)2 c]3 k (a)2
//
// The folding is online: after each appended symbol the tail of the
// sequence is checked, for window lengths from 1 up to maxBody, for
// (1) a window repeating the body of the loop node directly before it
// (loop grows by one iteration), (2) two adjacent equal windows (a new
// 2-iteration loop), and (3) two adjacent loops over the same body (loops
// merge). Because folded loops are single nodes, outer repetitions fold
// over inner loops, producing nested loop structures.

// DefaultMaxBody bounds the loop-body window the folder searches. Bodies
// longer than this are never folded; it exists to bound compression cost.
const DefaultMaxBody = 128

// compress folds the clustered event sequence of one rank into a loop
// structure.
func compress(seq []*Cluster, maxBody int) []Node {
	var f folder
	return f.compress(seq, maxBody)
}

// folder is the folded sequence under construction. Beside each node it
// keeps two hashes, so that fold can rule out a window with one integer
// comparison instead of a structural one: the node's own Hash, and the
// Hash of its last body node (for a leaf, its own hash again). The hash
// arrays are scratch, reused from one compress call to the next.
type folder struct {
	out     []Node
	hash    []uint64
	last    []uint64
	maxBody int
}

// compress folds seq, as the package-level compress does.
func (f *folder) compress(seq []*Cluster, maxBody int) []Node {
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	f.maxBody = maxBody
	f.out, f.hash, f.last = make([]Node, 0, 64), f.hash[:0], f.last[:0]
	for _, c := range seq {
		f.push(Leaf{C: c})
		f.fold()
	}
	out := f.out
	f.out = nil
	return out
}

func (f *folder) push(nd Node) {
	h := nd.Hash()
	last := h
	if lp, ok := nd.(*Loop); ok {
		last = lp.Body[len(lp.Body)-1].Hash()
	}
	f.out = append(f.out, nd)
	f.hash = append(f.hash, h)
	f.last = append(f.last, last)
}

func (f *folder) truncate(n int) {
	f.out, f.hash, f.last = f.out[:n], f.hash[:n], f.last[:n]
}

// fold repeatedly applies the three tail rules until none fires.
//
// Rules 1 and 2 are tried for window lengths l from 1 up to maxBody,
// shortest first, rule 1 before rule 2 at each length. Both can only fire
// where the node at n-1-l hashes like the tail node, because equal nodes
// hash equally: rule 2 needs out[n-1-l] equal to out[n-1], and rule 1
// needs the loop at n-1-l to end in a body node equal to out[n-1]. The
// scan therefore runs the structural checks only at window lengths whose
// hash or last-body hash matches the tail's hash, and fires exactly where
// checking every window would.
func (f *folder) fold() {
	for {
		n := len(f.out)
		// Rule 3: adjacent loops over the same body merge.
		if n >= 2 {
			if a, ok := f.out[n-2].(*Loop); ok {
				if b, ok2 := f.out[n-1].(*Loop); ok2 && sameBody(a.Body, b.Body) {
					f.truncate(n - 2)
					f.push(NewLoop(a.Count+b.Count, a.Body))
					continue
				}
			}
		}
		h := f.hash[n-1]
		lo := max(0, n-1-f.maxBody)
		hash, last := f.hash[lo:n-1], f.last[lo:n-1]
		fired := false
		for i := len(hash) - 1; i >= 0; i-- {
			if hash[i] != h && last[i] != h {
				continue
			}
			p := lo + i
			l := n - 1 - p
			// Rule 1: the tail window repeats the body of the loop node
			// immediately before it.
			if last[i] == h {
				if lp, ok := f.out[p].(*Loop); ok && len(lp.Body) == l && sameBody(f.out[n-l:], lp.Body) {
					f.truncate(p)
					f.push(NewLoop(lp.Count+1, lp.Body))
					fired = true
					break
				}
			}
			// Rule 2: two adjacent equal windows at the tail become a new
			// loop.
			if hash[i] == h && n >= 2*l && sameBody(f.out[n-2*l:n-l], f.out[n-l:]) {
				body := make([]Node, l)
				copy(body, f.out[n-l:])
				f.truncate(n - 2*l)
				f.push(NewLoop(2, body))
				fired = true
				break
			}
		}
		if !fired {
			return
		}
	}
}

// seqLeaves returns the signature length of a sequence: leaves with loop
// bodies counted once.
func seqLeaves(seq []Node) int {
	n := 0
	for _, nd := range seq {
		n += nd.Leaves()
	}
	return n
}

// seqTime returns the represented wall time of a sequence.
func seqTime(seq []Node) float64 {
	t := 0.0
	for _, nd := range seq {
		t += nd.TotalTime()
	}
	return t
}
