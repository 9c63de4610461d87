package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Registry is a virtual-clock metrics registry: counters, gauges and
// duration histograms, all stamped with virtual time supplied by the
// caller (never wall time), so rendered output is bit-identical across
// runs. Metrics are created on first use and rendered in sorted name
// order. The registry is not safe for concurrent use; the simulator's
// single-threaded scheduling regime is its intended context.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically accumulating value (events, bytes,
// seconds-of-time), remembering the virtual time it last changed.
type Counter struct {
	Value   float64
	Updated float64 // virtual time of last Add
}

// Counter returns the counter with the given name, creating it at zero.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Add increases the counter by v at virtual time t.
func (c *Counter) Add(t, v float64) {
	c.Value += v
	if t > c.Updated {
		c.Updated = t
	}
}

// Gauge is a last-value-wins instantaneous measurement.
type Gauge struct {
	Value   float64
	Updated float64
	set     bool
}

// Gauge returns the gauge with the given name, creating it unset.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Set records the gauge's value at virtual time t.
func (g *Gauge) Set(t, v float64) {
	g.Value = v
	g.Updated = t
	g.set = true
}

// histBuckets is the number of power-of-ten duration buckets, spanning
// 1 ns (index 0) to >= 100 s (last index).
const histBuckets = 12

// Histogram accumulates a distribution of durations (seconds) in
// power-of-ten buckets: bucket i counts observations in
// [10^(i-9), 10^(i-8)) seconds, with the first and last buckets
// absorbing the tails.
type Histogram struct {
	Count   int
	Sum     float64
	Min     float64
	Max     float64
	Buckets [histBuckets]int

	// memo of the last observation's bucket: simulated workloads observe
	// the same handful of durations over and over, so this skips the
	// log10 in the common case. lastV starts as NaN, which compares
	// unequal to everything including itself.
	lastV float64
	lastB int
}

// Histogram returns the histogram with the given name, creating it empty.
func (r *Registry) Histogram(name string) *Histogram {
	h := r.hists[name]
	if h == nil {
		h = &Histogram{Min: math.Inf(1), Max: math.Inf(-1), lastV: math.NaN()}
		r.hists[name] = h
	}
	return h
}

// Observe records one duration in seconds.
func (h *Histogram) Observe(v float64) {
	h.Count++
	h.Sum += v
	if v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	if v != h.lastV {
		h.lastV, h.lastB = v, bucketIndex(v)
	}
	h.Buckets[h.lastB]++
}

// bucketBound[i] is the smallest duration belonging to bucket i+1, so a
// bucket index is the count of bounds at or below the value. The bounds
// are found at init by binary search over float bits against the
// reference log-based mapping: both functions are monotone step
// functions of a positive float, so agreeing at every step boundary
// makes them equal everywhere — including wherever math.Log10 rounds a
// power of ten to the "wrong" side.
var bucketBound [histBuckets - 1]float64

func init() {
	for i := range bucketBound {
		// Smallest positive v with logBucketIndex(v) >= i+1. Positive
		// floats order the same as their bit patterns, so bisect bits.
		lo, hi := uint64(1), math.Float64bits(math.MaxFloat64)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if logBucketIndex(math.Float64frombits(mid)) >= i+1 {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		bucketBound[i] = math.Float64frombits(lo)
	}
}

// logBucketIndex is the reference duration-to-bucket mapping; bucketIndex
// reproduces it exactly via the precomputed bounds.
func logBucketIndex(v float64) int {
	if v < 1e-9 {
		return 0
	}
	i := int(math.Floor(math.Log10(v))) + 9
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketIndex maps a duration to its power-of-ten bucket.
func bucketIndex(v float64) int {
	// Binary search the 11 bounds: 4 comparisons in place of a log10.
	lo, hi := 0, len(bucketBound)
	for lo < hi {
		mid := (lo + hi) / 2
		if v >= bucketBound[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// bucketLabel names bucket i's upper bound.
func bucketLabel(i int) string {
	if i == histBuckets-1 {
		return "+inf"
	}
	return fmt.Sprintf("1e%d", i-8)
}

// Mean returns the mean observed duration, or zero when empty.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// HistogramStat is a histogram's JSON-friendly summary.
type HistogramStat struct {
	Count int     `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

// Snapshot is a registry's exportable state. Maps marshal with sorted
// keys under encoding/json, so the JSON form is deterministic too.
type Snapshot struct {
	Counters   map[string]float64       `json:"counters,omitempty"`
	Gauges     map[string]float64       `json:"gauges,omitempty"`
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]float64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			if g.set {
				s.Gauges[name] = g.Value
			}
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramStat, len(r.hists))
		for name, h := range r.hists {
			st := HistogramStat{Count: h.Count, Sum: h.Sum, Mean: h.Mean()}
			if h.Count > 0 {
				st.Min, st.Max = h.Min, h.Max
			}
			s.Histograms[name] = st
		}
	}
	return s
}

// Render returns the registry as an aligned plain-text report, metrics
// sorted by name within each section.
func (r *Registry) Render() string {
	var b strings.Builder
	if len(r.counters) > 0 {
		b.WriteString("counters:\n")
		for _, name := range sortedKeys(r.counters) {
			c := r.counters[name]
			fmt.Fprintf(&b, "  %-40s %16.6f  (last %.6fs)\n", name, c.Value, c.Updated)
		}
	}
	if len(r.gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, name := range sortedKeys(r.gauges) {
			g := r.gauges[name]
			if !g.set {
				continue
			}
			fmt.Fprintf(&b, "  %-40s %16.6f  (last %.6fs)\n", name, g.Value, g.Updated)
		}
	}
	if len(r.hists) > 0 {
		b.WriteString("histograms:\n")
		for _, name := range sortedKeys(r.hists) {
			h := r.hists[name]
			if h.Count == 0 {
				fmt.Fprintf(&b, "  %-40s empty\n", name)
				continue
			}
			fmt.Fprintf(&b, "  %-40s n=%d sum=%.6fs mean=%.9fs min=%.9fs max=%.9fs\n",
				name, h.Count, h.Sum, h.Mean(), h.Min, h.Max)
			for i, n := range h.Buckets {
				if n == 0 {
					continue
				}
				fmt.Fprintf(&b, "    le %-6s %8d\n", bucketLabel(i), n)
			}
		}
	}
	return b.String()
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
