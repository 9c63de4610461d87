package signature

// This file keeps the trace-reading Builder as it was before the Builder
// copied what clustering reads, verbatim apart from the renames
// (Builder → builderReference, item → refItem, and so on). It keeps the
// trace and reads each event's sizes and duration back from it at every
// threshold; FuzzLadder checks the Ladder against it. keyOf, keyCmp,
// rangesOf and durationNoise are shared with the production code, which
// did not change them.

import (
	"cmp"
	"slices"

	"perfskel/internal/mpi"
	"perfskel/internal/trace"
)

// refItem is one event occurrence in its hard-key bucket: where the event
// sits in the trace and its primary soft value (compute duration or
// message size). It is 16 bytes; a Sendrecv's receive size is read back
// from the trace when a group is split on it.
type refItem struct {
	v1        float64
	rank, idx int32
}

// refByValue orders items by soft value with the < relation. Trace
// validation rejects non-finite times, so the values hold no NaN and the
// order is a strict weak order.
func refByValue(a, b refItem) int {
	switch {
	case a.v1 < b.v1:
		return -1
	case b.v1 < a.v1:
		return 1
	}
	return 0
}

// refByValueThenPosition breaks refByValue's ties by trace position, rank
// major: the order a bucket is filled in. Positions are unique, so any
// sort under it yields exactly the stable sort by value of the filled
// bucket.
func refByValueThenPosition(a, b refItem) int {
	if c := refByValue(a, b); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rank, b.rank); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// builderReference is a trace prepared for clustering at any similarity
// threshold. Everything that does not depend on the threshold is done
// once, in newBuilderReference: validation, the normalisation scales, bucketing
// the events by hard key, and sorting each bucket by soft value. Each
// threshold then only splits the sorted buckets, in one linear pass, and
// folds the per-rank streams.
//
// A builderReference reads its trace on every call, so the trace must not change
// while the builderReference is in use, and a builderReference is not safe for concurrent
// use.
type builderReference struct {
	tr     *trace.Trace
	events int
	scale  ranges
	keys   []hardKey // bucket keys in keyCmp order
	ends   []int     // ends[i] is where bucket i ends in items
	// items holds every event, bucket after bucket, each bucket stably
	// sorted by soft value from rank-major event order.
	items []refItem
	// assign, scratch and fold are per-threshold buffers reused across
	// thresholds: each event's cluster, a Sendrecv group being split on
	// its receive size, and the folder's hash arrays.
	assign  [][]*Cluster
	scratch []refItem
	fold    folder
}

// newBuilderReference validates the trace and prepares it for clustering. It
// returns ErrEmptyTrace for a trace with no events.
func newBuilderReference(tr *trace.Trace) (*builderReference, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	n := tr.Len()
	if n == 0 {
		return nil, ErrEmptyTrace
	}
	b := &builderReference{tr: tr, events: n, scale: rangesOf(tr)}

	// Count pass: number the keys in order of first appearance and count
	// each key's events, remembering every event's key number.
	ids := make(map[hardKey]int)
	var keys []hardKey
	var counts []int
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
			}
			counts[id]++
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
	b.items = make([]refItem, n)
	b.assign = make([][]*Cluster, tr.NRanks)
	j := 0
	for rank, evs := range tr.Events {
		b.assign[rank] = make([]*Cluster, len(evs))
		for idx, e := range evs {
			v := float64(e.Bytes)
			if e.IsCompute() {
				v = e.Duration()
			}
			id := keyOfEvent[j]
			j++
			b.items[next[id]] = refItem{v1: v, rank: int32(rank), idx: int32(idx)}
			next[id]++
		}
	}
	lo := 0
	for _, hi := range b.ends {
		slices.SortFunc(b.items[lo:hi], refByValueThenPosition)
		lo = hi
	}
	return b, nil
}

// At builds the signature at one similarity threshold, folding loops
// with bodies of at most DefaultMaxBody nodes.
func (b *builderReference) At(threshold float64) *Signature {
	clusters := b.cluster(threshold)
	s := &Signature{
		NRanks:      b.tr.NRanks,
		AppTime:     b.tr.AppTime,
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
func (b *builderReference) cluster(threshold float64) []*Cluster {
	var clusters []*Cluster
	emit := func(k hardKey, members []refItem) {
		c := &Cluster{
			ID: len(clusters), Op: k.op, Sub: k.sub,
			Peer: k.peer, Peer2: k.peer2, Tag: k.tag,
		}
		if k.op == mpi.OpCompute {
			c.Durations = make([]float64, 0, len(members))
		}
		clusters = append(clusters, c)
		for _, it := range members {
			e := &b.tr.Events[it.rank][it.idx]
			c.add(float64(e.Bytes), float64(e.Byte2), e.Duration())
			b.assign[it.rank][it.idx] = c
		}
	}
	lo := 0
	for i, k := range b.keys {
		bucket := b.items[lo:b.ends[i]]
		lo = b.ends[i]
		scale, floor := b.scale.bytes, 0.5
		if k.op == mpi.OpCompute {
			scale, floor = b.scale.dur, durationNoise
		}
		maxGap := threshold*scale + floor
		for len(bucket) > 0 {
			g := bucket[:refGapEnd(bucket, maxGap)]
			bucket = bucket[len(g):]
			if k.op != mpi.OpSendrecv {
				emit(k, g)
				continue
			}
			// Sendrecv events carry a second size; split each group again
			// on it so receive sizes are bounded by the same threshold.
			sub := append(b.scratch[:0], g...)
			for j := range sub {
				sub[j].v1 = float64(b.tr.Events[sub[j].rank][sub[j].idx].Byte2)
			}
			slices.SortStableFunc(sub, refByValue)
			b.scratch = sub
			for len(sub) > 0 {
				n := refGapEnd(sub, maxGap)
				emit(k, sub[:n])
				sub = sub[n:]
			}
		}
	}
	return clusters
}

// refGapEnd returns the length of the leading group of value-sorted items:
// the group ends where consecutive values differ by more than maxGap
// (single-linkage agglomeration in one dimension).
func refGapEnd(s []refItem, maxGap float64) int {
	for i := 1; i < len(s); i++ {
		if s[i].v1-s[i-1].v1 > maxGap {
			return i
		}
	}
	return len(s)
}
