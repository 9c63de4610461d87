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
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	out := make([]Node, 0, 64)
	for _, c := range seq {
		out = append(out, Leaf{C: c})
		out = fold(out, maxBody)
	}
	return out
}

// fold repeatedly applies the three tail rules until none fires.
func fold(out []Node, maxBody int) []Node {
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
