package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the program's public functions.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 for a root
	ID     string  `json:"id"`     // cell or request the span belongs to
}

// layer is the span name's first dot-separated element ("mpi" for
// "mpi.RunContext"); "bench" spans are the benchmark's own glue.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call the same functions at the cost of
// a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its index.
func (t *tracer) begin(parent int, name, id string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, ID: id})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
}

// selfTimes returns each layer's self time within the subtree of span
// root: a span's duration minus the part its direct children cover.
// Children of one span run serially in this benchmark, so their
// durations do not overlap.
func (t *tracer) selfTimes(root int) map[string]float64 {
	in := make([]bool, len(t.spans))
	child := make([]float64, len(t.spans))
	for i, s := range t.spans {
		// A parent is always recorded before its children.
		in[i] = i == root || (s.Parent >= 0 && in[s.Parent])
		if in[i] && i != root {
			child[s.Parent] += s.dur()
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		if in[i] {
			self[s.layer()] += s.dur() - child[i]
		}
	}
	return self
}

// total sums the durations of spans with the given name.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.dur()
		}
	}
	return sum
}

// write saves the spans as JSON under dir, named after the workload and
// seed.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
