package telemetry

import (
	"fmt"
	"strings"
)

// RankTimeline renders a plain-text per-rank timeline over width time
// buckets. Each cell shows the bucket's dominant activity as seen
// through the op-span splits:
//
//	# compute (application work between calls plus CPU charged in calls)
//	x transfer (own payload on the wire)
//	b blocked (parked with nothing in flight — synchronisation delay)
//	- other in-call time
//	. idle (after the rank finished)
//
// It is the telemetry counterpart of trace.Timeline: same shape, but
// the wait time is decomposed, so a skeleton whose pattern of blocking
// diverges from its application's is visible at a glance.
func (c *Collector) RankTimeline(width int) string {
	if width <= 0 {
		width = 72
	}
	per := c.rankSpans()
	total := c.last
	if total <= 0 || len(per) == 0 {
		return "(no rank activity)\n"
	}
	dt := total / float64(width)
	var b strings.Builder
	fmt.Fprintf(&b, "rank timeline: %s total, %s per column ('#' compute, 'x' transfer, 'b' blocked, '-' other MPI, '.' idle)\n",
		SecondsPrec(total, 6), SecondsPrec(dt, 6))
	for rank, spans := range per {
		// Four accumulators per bucket: compute, transfer, blocked, other.
		comp := make([]float64, width)
		xfer := make([]float64, width)
		blkd := make([]float64, width)
		other := make([]float64, width)
		last := 0.0
		addInterval := func(acc []float64, start, end float64) {
			if end <= start {
				return
			}
			lo, hi := int(start/dt), int(end/dt)
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi && i >= 0; i++ {
				bs := float64(i) * dt
				overlap := minf(end, bs+dt) - maxf(start, bs)
				if overlap > 0 {
					acc[i] += overlap
				}
			}
		}
		for _, s := range spans {
			// Gap before the span is application compute.
			addInterval(comp, last, s.Start)
			// Distribute the span's categories uniformly over its
			// extent; exact sub-span placement is not recorded, and at
			// bucket resolution the uniform spread is indistinguishable.
			d := s.Duration()
			if d > 0 {
				fc := s.Split.Compute / d
				fx := s.Split.Transfer / d
				fb := s.Split.Blocked / d
				fo := 1 - fc - fx - fb
				if fo < 0 {
					fo = 0
				}
				addWeighted(comp, s.Start, s.End, dt, width, fc)
				addWeighted(xfer, s.Start, s.End, dt, width, fx)
				addWeighted(blkd, s.Start, s.End, dt, width, fb)
				addWeighted(other, s.Start, s.End, dt, width, fo)
			}
			last = s.End
		}
		// Trailing application compute up to the rank's finish.
		addInterval(comp, last, c.rankEnd(rank, spans))
		fmt.Fprintf(&b, "rank %2d |", rank)
		for i := 0; i < width; i++ {
			best, ch := dt/4, byte('.')
			for _, cat := range []struct {
				v float64
				c byte
			}{{comp[i], '#'}, {xfer[i], 'x'}, {blkd[i], 'b'}, {other[i], '-'}} {
				if cat.v > best {
					best, ch = cat.v, cat.c
				}
			}
			b.WriteByte(ch)
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// addWeighted spreads weight*overlap of [start,end] into acc's buckets.
func addWeighted(acc []float64, start, end, dt float64, width int, weight float64) {
	if weight <= 0 || end <= start {
		return
	}
	lo, hi := int(start/dt), int(end/dt)
	if hi >= width {
		hi = width - 1
	}
	for i := lo; i <= hi && i >= 0; i++ {
		bs := float64(i) * dt
		overlap := minf(end, bs+dt) - maxf(start, bs)
		if overlap > 0 {
			acc[i] += overlap * weight
		}
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
