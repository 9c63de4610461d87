package critpath

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Class selects a span class for a what-if virtual speedup, in the
// style of causal profiling: all time matching the class is scaled by
// a factor and the path length recomputed without re-simulating.
//
// The selector grammar is kind[:key=value[,key=value...]]:
//
//	compute[:rank=R][:phase=P][:op=NAME]   local progress; op narrows to
//	                                       in-call time of one operation,
//	                                       otherwise pure compute gaps
//	transfer[:rank=R][:phase=P][:node=N][:link=A-B]
//	                                       message transfer windows; rank
//	                                       matches the sender, node matches
//	                                       either endpoint node, link a
//	                                       directed node pair
//	blocked[:rank=R][:phase=P][:op=send|recv]
//	                                       blocking waits: the selected
//	                                       waits' synchronisation delay is
//	                                       scaled instead of waiting for
//	                                       the message
type Class struct {
	Kind  string // "compute", "transfer" or "blocked"
	Rank  int    // -1 any
	Phase int    // -1 any
	Node  int    // -1 any; transfer only: either endpoint node
	LinkA int    // -1 any; transfer only: source node of a directed link
	LinkB int    // dest node of the directed link
	Op    string // "" any; compute: op name, blocked: "send"/"recv"
}

// String returns the class in canonical selector form.
func (cl Class) String() string {
	var keys []string
	if cl.Rank >= 0 {
		keys = append(keys, fmt.Sprintf("rank=%d", cl.Rank))
	}
	if cl.Phase >= 0 {
		keys = append(keys, fmt.Sprintf("phase=%d", cl.Phase))
	}
	if cl.Node >= 0 {
		keys = append(keys, fmt.Sprintf("node=%d", cl.Node))
	}
	if cl.LinkA >= 0 {
		keys = append(keys, fmt.Sprintf("link=%d-%d", cl.LinkA, cl.LinkB))
	}
	if cl.Op != "" {
		keys = append(keys, "op="+cl.Op)
	}
	if len(keys) == 0 {
		return cl.Kind
	}
	return cl.Kind + ":" + strings.Join(keys, ",")
}

// ParseClass parses a selector of the grammar documented on Class.
func ParseClass(s string) (Class, error) {
	cl := Class{Rank: -1, Phase: -1, Node: -1, LinkA: -1, LinkB: -1}
	kind, rest, hasKeys := strings.Cut(s, ":")
	cl.Kind = kind
	switch kind {
	case "compute", "transfer", "blocked":
	default:
		return cl, fmt.Errorf("critpath: unknown span-class kind %q (want compute, transfer or blocked)", kind)
	}
	if !hasKeys {
		return cl, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok || val == "" {
			return cl, fmt.Errorf("critpath: malformed selector key %q in %q", kv, s)
		}
		atoi := func() (int, error) {
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("critpath: selector %s wants a non-negative integer, got %q", key, val)
			}
			return n, nil
		}
		var err error
		switch key {
		case "rank":
			cl.Rank, err = atoi()
		case "phase":
			cl.Phase, err = atoi()
		case "node":
			if cl.Kind != "transfer" {
				return cl, fmt.Errorf("critpath: selector node= applies to transfer only")
			}
			cl.Node, err = atoi()
		case "link":
			if cl.Kind != "transfer" {
				return cl, fmt.Errorf("critpath: selector link= applies to transfer only")
			}
			a, b, ok := strings.Cut(val, "-")
			if !ok {
				return cl, fmt.Errorf("critpath: selector link= wants A-B node pair, got %q", val)
			}
			var ea, eb error
			cl.LinkA, ea = strconv.Atoi(a)
			cl.LinkB, eb = strconv.Atoi(b)
			if ea != nil || eb != nil || cl.LinkA < 0 || cl.LinkB < 0 {
				return cl, fmt.Errorf("critpath: selector link= wants A-B node pair, got %q", val)
			}
		case "op":
			if cl.Kind == "transfer" {
				return cl, fmt.Errorf("critpath: selector op= applies to compute and blocked only")
			}
			cl.Op = val
		default:
			return cl, fmt.Errorf("critpath: unknown selector key %q in %q", key, s)
		}
		if err != nil {
			return cl, err
		}
	}
	return cl, nil
}

// WhatIfSpec pairs a class with a scaling factor.
type WhatIfSpec struct {
	Class  Class
	Factor float64
}

// ParseSpec parses "class" or "class@factor"; the factor defaults to
// 0.5 (a 2x virtual speedup) and must be finite and non-negative.
func ParseSpec(s string) (WhatIfSpec, error) {
	sel, fs, hasF := strings.Cut(s, "@")
	cl, err := ParseClass(sel)
	if err != nil {
		return WhatIfSpec{}, err
	}
	f := 0.5
	if hasF {
		f, err = strconv.ParseFloat(fs, 64)
		if err != nil || f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return WhatIfSpec{}, fmt.Errorf("critpath: what-if factor must be a finite non-negative number, got %q", fs)
		}
	}
	return WhatIfSpec{Class: cl, Factor: f}, nil
}

// matchPart reports whether a local-edge part on rank r belongs to cl.
func (cl Class) matchPart(r int, p Part) bool {
	if cl.Kind != "compute" {
		return false
	}
	if cl.Rank >= 0 && r != cl.Rank {
		return false
	}
	if cl.Phase >= 0 && p.Phase != cl.Phase {
		return false
	}
	if cl.Op == "" {
		return p.Kind == "compute"
	}
	return p.Kind == cl.Op
}

// matchMsg reports whether a message's transfer window belongs to cl.
func (g *Graph) matchMsg(cl Class, mi int) bool {
	if cl.Kind != "transfer" {
		return false
	}
	m := g.msgs[mi]
	if cl.Rank >= 0 && m.Src != cl.Rank {
		return false
	}
	if cl.Phase >= 0 && g.phaseAt(m.Src, m.Start) != cl.Phase {
		return false
	}
	if cl.Node >= 0 && m.SrcNode != cl.Node && m.DstNode != cl.Node {
		return false
	}
	if cl.LinkA >= 0 && (m.SrcNode != cl.LinkA || m.DstNode != cl.LinkB) {
		return false
	}
	return true
}

// matchWait reports whether a blocking wait belongs to cl.
func (g *Graph) matchWait(cl Class, wi int) bool {
	if cl.Kind != "blocked" {
		return false
	}
	w := g.waits[wi]
	if cl.Rank >= 0 && w.Rank != cl.Rank {
		return false
	}
	if cl.Phase >= 0 && g.phaseAt(w.Rank, w.Start) != cl.Phase {
		return false
	}
	if cl.Op != "" && w.Op != cl.Op {
		return false
	}
	return true
}

// WhatIf predicts the makespan if all time in class cl were scaled by
// factor f, by recomputing the longest path over adjusted edge weights:
//
//   - local edges shrink by the matched attribution parts: w' = w - m + f*m
//   - matched transfer edges scale whole: w' = f*w
//   - for a blocked class, each selected wait stops waiting for its
//     message (the wake edge is dropped) and instead costs f times its
//     observed synchronisation delay on the program-order edge
//
// f = 1 reproduces the baseline, and the prediction is monotone in f.
func (g *Graph) WhatIf(cl Class, f float64) float64 {
	return g.longest(func(e *Edge) (float64, bool) {
		switch e.Kind {
		case EdgeLocal:
			w := e.Dur
			for _, p := range e.Parts {
				if cl.matchPart(g.nodes[e.To].Rank, p) {
					w -= (1 - f) * p.Dur()
				}
			}
			return w, true
		case EdgeTransfer:
			if g.matchMsg(cl, e.Msg) {
				return f * e.Dur, true
			}
			return e.Dur, true
		case EdgeWake:
			if g.matchWait(cl, e.Wait) {
				return 0, false // the wait no longer waits for the message
			}
			return 0, true
		case EdgeOrder:
			if g.matchWait(cl, e.Wait) {
				w := g.waits[e.Wait]
				return f * (w.End - w.Start), true
			}
			return 0, true
		default:
			return 0, true
		}
	})
}

// Baseline computes the longest path over the unmodified weights. It
// differs from Makespan only by floating-point summation noise; use it
// as the reference for what-if deltas so the noise cancels.
func (g *Graph) Baseline() float64 {
	return g.longest(func(e *Edge) (float64, bool) { return weightOf(e), true })
}

func weightOf(e *Edge) float64 {
	switch e.Kind {
	case EdgeLocal, EdgeTransfer:
		return e.Dur
	default:
		return 0
	}
}

// longest runs the longest-path DP in topological order with per-edge
// weights from w; an inactive edge is skipped.
func (g *Graph) longest(w func(*Edge) (float64, bool)) float64 {
	dist := make([]float64, len(g.nodes))
	for _, v := range g.topo {
		d := dist[v]
		for _, ei := range g.out[v] {
			e := &g.edges[ei]
			wt, active := w(e)
			if !active {
				continue
			}
			if nd := d + wt; nd > dist[e.To] {
				dist[e.To] = nd
			}
		}
	}
	return dist[g.sink]
}

// Sensitivity is one row of a what-if table.
type Sensitivity struct {
	Class     string  `json:"class"`
	Factor    float64 `json:"factor"`
	Baseline  float64 `json:"baseline"`
	Predicted float64 `json:"predicted"`
	DeltaPct  float64 `json:"deltapct"` // (predicted-baseline)/baseline * 100
}

// Sensitivities evaluates each spec against the graph and returns the
// table in spec order.
func (g *Graph) Sensitivities(specs []WhatIfSpec) []Sensitivity {
	base := g.Baseline()
	out := make([]Sensitivity, 0, len(specs))
	for _, sp := range specs {
		pred := g.WhatIf(sp.Class, sp.Factor)
		d := 0.0
		if base > 0 {
			d = 100 * (pred - base) / base
		}
		out = append(out, Sensitivity{
			Class: sp.Class.String(), Factor: sp.Factor,
			Baseline: base, Predicted: pred, DeltaPct: d,
		})
	}
	return out
}

// DefaultSpecs returns a standard sensitivity sweep at factor f: all
// compute, all transfers, all blocking, then each rank's compute and
// each rank's blocking.
func (g *Graph) DefaultSpecs(f float64) []WhatIfSpec {
	any := Class{Rank: -1, Phase: -1, Node: -1, LinkA: -1, LinkB: -1}
	specs := []WhatIfSpec{}
	for _, kind := range []string{"compute", "transfer", "blocked"} {
		cl := any
		cl.Kind = kind
		specs = append(specs, WhatIfSpec{Class: cl, Factor: f})
	}
	for r := 0; r < g.nranks; r++ {
		cl := any
		cl.Kind, cl.Rank = "compute", r
		specs = append(specs, WhatIfSpec{Class: cl, Factor: f})
	}
	for r := 0; r < g.nranks; r++ {
		cl := any
		cl.Kind, cl.Rank = "blocked", r
		specs = append(specs, WhatIfSpec{Class: cl, Factor: f})
	}
	return specs
}
