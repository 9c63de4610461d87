package signature

import (
	"cmp"
	"math"
	"slices"

	"perfskel/internal/mpi"
	"perfskel/internal/trace"
)

// hardKey is the part of an event that must match exactly for two events
// to be clustered: different MPI primitives, blocking vs non-blocking
// calls, and different communication partners are never grouped (paper
// section 3.2).
type hardKey struct {
	op    mpi.Op
	sub   mpi.Op
	peer  int
	peer2 int
	tag   int
}

func keyOf(e trace.Event) hardKey {
	return hardKey{op: e.Op, sub: e.Sub, peer: e.Peer, peer2: e.Peer2, tag: e.Tag}
}

// keyCmp orders hard keys by op, sub, peer, peer2 and tag.
func keyCmp(a, b hardKey) int {
	if c := cmp.Compare(a.op, b.op); c != 0 {
		return c
	}
	if c := cmp.Compare(a.sub, b.sub); c != 0 {
		return c
	}
	if c := cmp.Compare(a.peer, b.peer); c != 0 {
		return c
	}
	if c := cmp.Compare(a.peer2, b.peer2); c != 0 {
		return c
	}
	return cmp.Compare(a.tag, b.tag)
}

// ranges holds the trace-wide normalisation scales of the soft dimensions
// of the dissimilarity measure: the maximum message size and maximum
// compute duration observed. Normalising by the maximum makes the
// threshold a relative-difference bound — a threshold of t merges events
// whose sizes differ by at most t of the largest size — matching the
// paper's observation that thresholds below 0.20 suffice for the NAS
// suite.
type ranges struct {
	bytes float64 // largest message size across all communication events
	dur   float64 // longest duration across all compute events
}

func rangesOf(tr *trace.Trace) ranges {
	var r ranges
	for _, evs := range tr.Events {
		for _, e := range evs {
			if e.IsCompute() {
				r.dur = math.Max(r.dur, e.Duration())
			} else {
				r.bytes = math.Max(r.bytes, float64(e.Bytes))
				if e.Op == mpi.OpSendrecv {
					r.bytes = math.Max(r.bytes, float64(e.Byte2))
				}
			}
		}
	}
	return r
}

// durationNoise is the absolute measurement resolution below which two
// compute durations are considered identical (the paper's tracer has
// microsecond resolution; the simulator's only noise is float rounding).
const durationNoise = 1e-9

// item is one event occurrence in its hard-key bucket: where the event
// sits in the trace, its primary soft value v1 (compute duration or
// message size) and v2, the other of the two (a compute event's byte
// count, a message's duration). It is 24 bytes; a second size (a
// Sendrecv's receive size) is kept beside the bucket, see Builder.byte2.
type item struct {
	v1, v2    float64
	rank, idx int32
}

// recvItem is an item with its second size, for a group whose bucket
// has second sizes; a Sendrecv group is split again on them.
type recvItem struct {
	byte2 float64
	it    item
}

// byValue orders items by soft value with the < relation. Trace
// validation rejects non-finite times, so the values hold no NaN and the
// order is a strict weak order.
func byValue(a, b item) int {
	switch {
	case a.v1 < b.v1:
		return -1
	case b.v1 < a.v1:
		return 1
	}
	return 0
}

// byValueThenPosition breaks byValue's ties by trace position, rank
// major: the order a bucket is filled in. Positions are unique, so any
// sort under it yields exactly the stable sort by value of the filled
// bucket.
func byValueThenPosition(a, b item) int {
	if c := byValue(a, b); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rank, b.rank); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// Builder is a trace prepared for clustering at any similarity
// threshold. Everything that does not depend on the threshold is done
// once, in NewBuilder: validation, the normalisation scales, bucketing
// the events by hard key, and sorting each bucket by soft value. Each
// threshold then only splits the sorted buckets, in one linear pass, and
// folds the per-rank streams.
//
// A Builder copies the per-event values clustering reads, so the trace
// may be dropped or changed once NewBuilder returns. A Builder is not
// safe for concurrent use.
type Builder struct {
	nranks  int
	appTime float64
	events  int
	scale   ranges
	keys    []hardKey // bucket keys in keyCmp order
	ends    []int     // ends[i] is where bucket i ends in items
	// items holds every event, bucket after bucket, each bucket stably
	// sorted by soft value from rank-major event order.
	items []item
	// byte2[i] holds the second size of each of bucket i's items, in item
	// order, when any event of the bucket has one (in practice only
	// Sendrecv buckets); it is nil when all of them are zero.
	byte2 [][]float64
	// assign, scratch and fold are per-threshold buffers reused across
	// thresholds: each event's cluster, a Sendrecv group being split on
	// its receive size, and the folder's hash arrays.
	assign  [][]*Cluster
	scratch []recvItem
	fold    folder
}

// NewBuilder validates the trace and prepares it for clustering. It
// returns ErrEmptyTrace for a trace with no events.
func NewBuilder(tr *trace.Trace) (*Builder, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	n := tr.Len()
	if n == 0 {
		return nil, ErrEmptyTrace
	}
	b := &Builder{nranks: tr.NRanks, appTime: tr.AppTime, events: n, scale: rangesOf(tr)}

	// Count pass: number the keys in order of first appearance and count
	// each key's events, remembering every event's key number and which
	// keys carry a second size.
	ids := make(map[hardKey]int)
	var keys []hardKey
	var counts []int
	var hasByte2 []bool
	keyOfEvent := make([]int32, 0, n)
	for _, evs := range tr.Events {
		for _, e := range evs {
			k := keyOf(e)
			id, ok := ids[k]
			if !ok {
				id = len(keys)
				ids[k] = id
				keys = append(keys, k)
				counts = append(counts, 0)
				hasByte2 = append(hasByte2, false)
			}
			counts[id]++
			hasByte2[id] = hasByte2[id] || e.Byte2 != 0
			keyOfEvent = append(keyOfEvent, int32(id))
		}
	}

	// Lay the buckets out in key order, then fill them in rank-major
	// event order and sort each by soft value.
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return keyCmp(keys[i], keys[j]) })
	next := make([]int, len(keys)) // fill position of each key's bucket
	b.keys = make([]hardKey, len(keys))
	b.ends = make([]int, len(keys))
	pos := 0
	for i, id := range order {
		b.keys[i] = keys[id]
		next[id] = pos
		pos += counts[id]
		b.ends[i] = pos
	}
	b.items = make([]item, n)
	b.assign = make([][]*Cluster, tr.NRanks)
	j := 0
	for rank, evs := range tr.Events {
		b.assign[rank] = make([]*Cluster, len(evs))
		for idx, e := range evs {
			v1, v2 := float64(e.Bytes), e.Duration()
			if e.IsCompute() {
				v1, v2 = v2, v1
			}
			id := keyOfEvent[j]
			j++
			b.items[next[id]] = item{v1: v1, v2: v2, rank: int32(rank), idx: int32(idx)}
			next[id]++
		}
	}
	b.byte2 = make([][]float64, len(keys))
	lo := 0
	for i, hi := range b.ends {
		bucket := b.items[lo:hi]
		slices.SortFunc(bucket, byValueThenPosition)
		if hasByte2[order[i]] {
			b.byte2[i] = make([]float64, len(bucket))
			for j, it := range bucket {
				b.byte2[i][j] = float64(tr.Events[it.rank][it.idx].Byte2)
			}
		}
		lo = hi
	}
	return b, nil
}

// At builds the signature at one similarity threshold, folding loops
// with bodies of at most DefaultMaxBody nodes.
func (b *Builder) At(threshold float64) *Signature {
	clusters := b.cluster(threshold)
	s := &Signature{
		NRanks:      b.nranks,
		AppTime:     b.appTime,
		TraceEvents: b.events,
		Clusters:    clusters,
		Threshold:   threshold,
		PerRank:     make([][]Node, len(b.assign)),
	}
	for rank, seq := range b.assign {
		s.PerRank[rank] = b.fold.compress(seq, DefaultMaxBody)
	}
	s.Ratio = float64(s.TraceEvents) / float64(s.Len())
	return s
}

// cluster groups the trace's events under the given similarity threshold.
// It returns the cluster table and leaves each event's cluster in
// b.assign, per rank in original order.
//
// Clustering is single-linkage on the event's soft parameter (compute
// duration, or message size) within each hard key: values are sorted and
// split wherever the gap to the predecessor exceeds threshold times the
// trace-wide scale. This is order-independent and global across ranks, so
// corresponding events on symmetric ranks always land in the same cluster
// — which keeps the generated per-rank skeleton programs mutually
// consistent (mismatched compression across ranks would deadlock the
// skeleton). Each cluster's parameters are the mean of its members, the
// paper's "average event", accumulated in sorted order.
func (b *Builder) cluster(threshold float64) []*Cluster {
	var clusters []*Cluster
	open := func(k hardKey, members int) *Cluster {
		c := &Cluster{
			ID: len(clusters), Op: k.op, Sub: k.sub,
			Peer: k.peer, Peer2: k.peer2, Tag: k.tag,
		}
		if k.op == mpi.OpCompute {
			c.Durations = make([]float64, 0, members)
		}
		clusters = append(clusters, c)
		return c
	}
	add := func(c *Cluster, it item, byte2 float64) {
		if c.Op == mpi.OpCompute {
			c.add(it.v2, byte2, it.v1)
		} else {
			c.add(it.v1, byte2, it.v2)
		}
		b.assign[it.rank][it.idx] = c
	}
	lo := 0
	for i, k := range b.keys {
		bucket := b.items[lo:b.ends[i]]
		byte2 := b.byte2[i]
		lo = b.ends[i]
		scale, floor := b.scale.bytes, 0.5
		if k.op == mpi.OpCompute {
			scale, floor = b.scale.dur, durationNoise
		}
		maxGap := threshold*scale + floor
		for len(bucket) > 0 {
			g := bucket[:gapEnd(bucket, maxGap)]
			bucket = bucket[len(g):]
			if byte2 == nil {
				// No second sizes: the group is one cluster. (Splitting a
				// Sendrecv group on all-zero receive sizes keeps it whole.)
				c := open(k, len(g))
				for _, it := range g {
					add(c, it, 0)
				}
				continue
			}
			sub := b.scratch[:0]
			for j, it := range g {
				sub = append(sub, recvItem{byte2: byte2[j], it: it})
			}
			byte2 = byte2[len(g):]
			b.scratch = sub
			if k.op == mpi.OpSendrecv {
				// Sendrecv events carry a second size; split each group
				// again on it so receive sizes are bounded by the same
				// threshold.
				slices.SortStableFunc(sub, func(x, y recvItem) int { return cmp.Compare(x.byte2, y.byte2) })
			}
			for len(sub) > 0 {
				n := len(sub)
				if k.op == mpi.OpSendrecv {
					n = recvGapEnd(sub, maxGap)
				}
				c := open(k, n)
				for _, r := range sub[:n] {
					add(c, r.it, r.byte2)
				}
				sub = sub[n:]
			}
		}
	}
	return clusters
}

// gapEnd returns the length of the leading group of value-sorted items:
// the group ends where consecutive values differ by more than maxGap
// (single-linkage agglomeration in one dimension).
func gapEnd(s []item, maxGap float64) int {
	for i := 1; i < len(s); i++ {
		if s[i].v1-s[i-1].v1 > maxGap {
			return i
		}
	}
	return len(s)
}

// recvGapEnd is gapEnd over receive sizes.
func recvGapEnd(s []recvItem, maxGap float64) int {
	for i := 1; i < len(s); i++ {
		if s[i].byte2-s[i-1].byte2 > maxGap {
			return i
		}
	}
	return len(s)
}
