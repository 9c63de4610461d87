package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event / Perfetto export. The output follows the JSON
// trace-event format (the "traceEvents" array form) that both
// chrome://tracing and ui.perfetto.dev load directly:
//
//   - pid perfettoPidRanks: one thread per MPI rank, complete ("X")
//     events for operation spans with the compute/blocked/transfer
//     split in args.
//   - pid perfettoPidProcs: one thread per virtual process, complete
//     events for blocked intervals with the block reason.
//   - pid perfettoPidResources: counter ("C") events for per-CPU
//     runnable counts and per-link flow rates.
//
// Timestamps are virtual microseconds. Field order is fixed by struct
// declaration and map-free, and all inputs are deterministic virtual-time
// quantities, so two identical runs export byte-identical files.

const (
	perfettoPidRanks     = 1
	perfettoPidProcs     = 2
	perfettoPidResources = 3
)

// traceEvent is one Chrome trace-event entry. Optional fields are
// pointers or omitempty so unused ones vanish from the output.
type traceEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat,omitempty"`
	Ph   string          `json:"ph"`
	ID   string          `json:"id,omitempty"` // flow binding id
	BP   string          `json:"bp,omitempty"` // flow binding point
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Ts   float64         `json:"ts"`
	Dur  *float64        `json:"dur,omitempty"`
	Args json.RawMessage `json:"args,omitempty"`
}

type perfettoFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

type spanArgs struct {
	Peer     int     `json:"peer"`
	Bytes    int64   `json:"bytes"`
	Tag      int     `json:"tag"`
	Path     string  `json:"path,omitempty"`
	Compute  float64 `json:"compute"`
	Blocked  float64 `json:"blocked"`
	Transfer float64 `json:"transfer"`
}

type blockArgs struct {
	Reason string `json:"reason"`
}

type counterArgs struct {
	Value float64 `json:"value"`
}

type nameArgs struct {
	Name string `json:"name"`
}

// usec converts virtual seconds to trace-event microseconds.
func usec(t float64) float64 { return t * 1e6 }

func metaEvent(pid, tid int, ph, name string) traceEvent {
	raw, _ := json.Marshal(nameArgs{Name: name})
	return traceEvent{Name: ph, Ph: "M", Pid: pid, Tid: tid, Args: raw}
}

type flowArgs struct {
	Bytes int64  `json:"bytes"`
	Path  string `json:"path,omitempty"`
}

// PerfettoEvents renders the collector's records as trace events.
func (c *Collector) PerfettoEvents() []traceEvent {
	return c.perfettoEvents(nil)
}

func (c *Collector) perfettoEvents(critical []bool) []traceEvent {
	var evs []traceEvent

	// Metadata: process and thread names.
	evs = append(evs,
		metaEvent(perfettoPidRanks, 0, "process_name", "mpi ranks ("+c.Scenario+")"),
		metaEvent(perfettoPidProcs, 0, "process_name", "sim procs"),
		metaEvent(perfettoPidResources, 0, "process_name", "resources"),
	)
	for rank := 0; rank < len(c.rankSpans()); rank++ {
		node := -1
		if n, ok := c.rankNode[rank]; ok {
			node = n
		}
		evs = append(evs, metaEvent(perfettoPidRanks, rank, "thread_name",
			fmt.Sprintf("rank %d (node %d)", rank, node)))
	}
	for _, p := range c.procs {
		evs = append(evs, metaEvent(perfettoPidProcs, p.ID, "thread_name", p.Name))
	}

	// MPI operation spans.
	for i, s := range c.spans {
		dur := usec(s.End - s.Start)
		raw, _ := json.Marshal(spanArgs{
			Peer: s.Peer, Bytes: s.Bytes, Tag: s.Tag, Path: s.Path,
			Compute: s.Split.Compute, Blocked: s.Split.Blocked, Transfer: s.Split.Transfer,
		})
		cat := ""
		if i < len(critical) && critical[i] {
			cat = "critical"
		}
		evs = append(evs, traceEvent{
			Name: s.Op, Cat: cat, Ph: "X", Pid: perfettoPidRanks, Tid: s.Rank,
			Ts: usec(s.Start), Dur: &dur, Args: raw,
		})
	}

	// Flow arrows for cross-rank message transfers: start on the sender's
	// track when the payload leaves, finish on the receiver's track at
	// delivery (bp "e" binds to the enclosing slice's end). Collective-
	// internal traffic is skipped to keep the arrow count readable.
	for _, m := range c.msgs {
		if m.End < 0 || m.Src == m.Dst || m.Collective {
			continue
		}
		raw, _ := json.Marshal(flowArgs{Bytes: m.Bytes, Path: m.Path})
		id := fmt.Sprintf("m%d", m.ID)
		evs = append(evs,
			traceEvent{
				Name: "msg", Cat: "msg", Ph: "s", ID: id,
				Pid: perfettoPidRanks, Tid: m.Src, Ts: usec(m.Start), Args: raw,
			},
			traceEvent{
				Name: "msg", Cat: "msg", Ph: "f", BP: "e", ID: id,
				Pid: perfettoPidRanks, Tid: m.Dst, Ts: usec(m.End), Args: raw,
			},
		)
	}

	// Proc blocked intervals. Spans still open (deadlocked or daemon
	// procs) close at the last observed time.
	c.eachBlock(func(b *BlockSpan) {
		end := b.End
		if end < 0 {
			end = c.last
		}
		dur := usec(end - b.Start)
		raw, _ := json.Marshal(blockArgs{Reason: b.Reason})
		evs = append(evs, traceEvent{
			Name: "blocked", Ph: "X", Pid: perfettoPidProcs, Tid: b.Proc,
			Ts: usec(b.Start), Dur: &dur, Args: raw,
		})
	})

	// Utilisation counters, one named counter track per resource.
	for _, cpu := range sortedKeys(c.cpuSeries) {
		for _, s := range c.cpuSeries[cpu].samples {
			raw, _ := json.Marshal(counterArgs{Value: s.Value})
			evs = append(evs, traceEvent{
				Name: cpu + " runnable", Ph: "C", Pid: perfettoPidResources,
				Ts: usec(s.T), Args: raw,
			})
		}
	}
	for _, link := range sortedKeys(c.linkSeries) {
		for _, s := range c.linkSeries[link].samples {
			raw, _ := json.Marshal(counterArgs{Value: s.Value})
			evs = append(evs, traceEvent{
				Name: link + " bytes/s", Ph: "C", Pid: perfettoPidResources,
				Ts: usec(s.T), Args: raw,
			})
		}
	}

	// Stable global time order (metadata first at ts 0) keeps the file
	// canonical; SliceStable preserves emission order for equal stamps.
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Ph == "M" != (evs[j].Ph == "M") {
			return evs[i].Ph == "M"
		}
		return evs[i].Ts < evs[j].Ts
	})
	return evs
}

// WritePerfetto writes the Chrome trace-event JSON file to w.
func (c *Collector) WritePerfetto(w io.Writer) error {
	return c.writePerfetto(w, nil)
}

// WritePerfettoCritical writes the trace with critical-path spans (per
// the mask over Spans()) carrying the "critical" category.
func (c *Collector) WritePerfettoCritical(w io.Writer, critical []bool) error {
	return c.writePerfetto(w, critical)
}

func (c *Collector) writePerfetto(w io.Writer, critical []bool) error {
	f := perfettoFile{DisplayTimeUnit: "ms", TraceEvents: c.perfettoEvents(critical)}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}
