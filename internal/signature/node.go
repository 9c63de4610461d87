// Package signature compresses an execution trace into an execution
// signature (paper section 3.2): substantially similar events are
// clustered and replaced by an "average event", and repeating event
// sequences are folded into a recursive loop structure. The signature is
// the compact program-like representation from which performance
// skeletons are generated.
package signature

import (
	"fmt"
	"strings"

	"perfskel/internal/mpi"
)

// Cluster is a class of substantially similar execution events, carrying
// the centroid ("average event") of its members. Events only share a
// cluster when their operation kind and peers match exactly; sizes and
// durations are averaged.
type Cluster struct {
	ID       int
	Op       mpi.Op
	Sub      mpi.Op // for waits: request kind
	Peer     int
	Peer2    int
	Tag      int
	Bytes    float64 // centroid message size (per-pair size for collectives)
	Byte2    float64 // centroid sendrecv receive size
	Duration float64 // centroid duration; for compute events this is the work
	Count    int     // members
	// Durations holds the members' individual durations, retained so
	// skeleton construction can reproduce the empirical distribution of
	// compute times instead of only their mean (the paper's section 4.4
	// future-work item on unbalanced scenarios).
	Durations []float64
}

func (c *Cluster) String() string {
	if c.Op == mpi.OpCompute {
		return fmt.Sprintf("compute(%.6fs)", c.Duration)
	}
	return fmt.Sprintf("%v(peer=%d,bytes=%.0f)", c.Op, c.Peer, c.Bytes)
}

// add folds an event's parameters into the centroid.
func (c *Cluster) add(bytes, byte2, dur float64) {
	n := float64(c.Count)
	c.Bytes = (c.Bytes*n + bytes) / (n + 1)
	c.Byte2 = (c.Byte2*n + byte2) / (n + 1)
	c.Duration = (c.Duration*n + dur) / (n + 1)
	c.Count++
	if c.Op == mpi.OpCompute {
		c.Durations = append(c.Durations, dur)
	}
}

// Node is an element of a signature sequence: a Leaf (one clustered event)
// or a Loop (a repeated sub-sequence).
type Node interface {
	// Hash is a structural hash. Loops cache it and compare it first, as
	// a fast reject before their count and body; leaves compare by
	// cluster pointer and hash only to feed their parent loop's hash.
	Hash() uint64
	// Leaves returns the number of distinct leaves (loop bodies counted
	// once), the signature's "length" for the compression ratio.
	Leaves() int
	// TotalTime returns the represented wall time: leaf centroids times
	// loop counts.
	TotalTime() float64
	fmt.Stringer
}

// Leaf is a single clustered event occurrence.
type Leaf struct {
	C *Cluster
}

// Hash implements Node.
func (l Leaf) Hash() uint64 { return fnv1a(0x1eaf, uint64(l.C.ID)) }

// Leaves implements Node.
func (l Leaf) Leaves() int { return 1 }

// TotalTime implements Node.
func (l Leaf) TotalTime() float64 { return l.C.Duration }

func (l Leaf) String() string { return l.C.String() }

// Loop is a repeated sub-sequence: Count iterations of Body.
type Loop struct {
	Count int
	Body  []Node
	hash  uint64
}

// NewLoop builds a loop node with its structural hash precomputed.
func NewLoop(count int, body []Node) *Loop {
	h := fnv1a(0x100f, uint64(count))
	for _, n := range body {
		h = fnv1a(h, n.Hash())
	}
	return &Loop{Count: count, Body: body, hash: h}
}

// Hash implements Node.
func (l *Loop) Hash() uint64 { return l.hash }

// Leaves implements Node.
func (l *Loop) Leaves() int {
	n := 0
	for _, b := range l.Body {
		n += b.Leaves()
	}
	return n
}

// TotalTime implements Node.
func (l *Loop) TotalTime() float64 {
	t := 0.0
	for _, b := range l.Body {
		t += b.TotalTime()
	}
	return t * float64(l.Count)
}

func (l *Loop) String() string {
	parts := make([]string, len(l.Body))
	for i, b := range l.Body {
		parts[i] = b.String()
	}
	return fmt.Sprintf("[%s]x%d", strings.Join(parts, " "), l.Count)
}

// sameBody reports structural equality of two node sequences: loop
// bodies, or the tail windows fold compares against each other.
func sameBody(a, b []Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameNode(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameNode reports structural equality of two nodes. Leaves are equal
// when they share a cluster; loops compare their cached hashes first,
// which rules out nearly every unequal pair, and fall back to the deep
// comparison to rule out collisions.
func sameNode(a, b Node) bool {
	switch x := a.(type) {
	case Leaf:
		y, ok := b.(Leaf)
		return ok && x.C == y.C
	case *Loop:
		y, ok := b.(*Loop)
		return ok && x.hash == y.hash && x.Count == y.Count && sameBody(x.Body, y.Body)
	}
	return false
}

// fnv1a is one FNV-1a mixing step over a 64-bit value.
func fnv1a(h, v uint64) uint64 {
	const prime = 1099511628211
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= prime
	}
	return h
}
