package staticsig

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"perfskel/internal/mpi"
	"perfskel/internal/signature"
	"perfskel/internal/trace"
)

// Cross-validation against the trace pipeline: the static and the
// traced signature of the same (app, class, P) must agree on the
// scale-invariant communication shape (signature.ScaledDiff) and on
// per-rank byte volumes per communication slot — except the volumes
// instantiation flagged as placeholders. Compute durations are not
// compared exactly (the static side is a model-seconds estimate, the
// traced side a measurement); their ratio is reported as WorkScale.

// ByteTolerance is the relative byte-volume agreement required per
// communication slot. Trace clustering averages same-slot events of
// different sizes into integer-rounded centroids, so totals can drift
// by sub-percent rounding without any structural difference.
const ByteTolerance = 0.01

// ByteMismatch is one communication slot whose per-rank byte totals
// disagree beyond ByteTolerance.
type ByteMismatch struct {
	Rank           int
	Key            string // signature.CanonKey of the slot
	Static, Traced float64
}

// Divergence is the cross-validation result for one instance against
// one traced signature.
type Divergence struct {
	App    string
	Class  string
	NRanks int
	// Structure describes the first scaled communication-shape mismatch
	// (signature.ScaledDiff), or "" when the per-phase op structure
	// matches on every rank.
	Structure string
	// Bytes lists non-placeholder communication slots whose byte totals
	// disagree.
	Bytes []ByteMismatch
	// StaticEvents and TracedEvents are the expanded dynamic op counts.
	StaticEvents, TracedEvents int
	// WorkScale is total traced compute time over total static compute
	// work: how far the static compute estimates are from this run.
	WorkScale float64
	// Placeholders echoes the instance's placeholder notes.
	Placeholders []string
}

// DiffTargetRatio is the compression ratio DiffTrace folds traces at
// before shape comparison. Shape equivalence is insensitive to the
// exact ratio (tandem repeats collapse either way), but the traced
// sequences must be folded for the comparison to stay tractable.
const DiffTargetRatio = 32

// DiffTrace compresses a recorded trace of the same (app, class, P)
// run and cross-validates the instance against it.
func (in *Instance) DiffTrace(tr *trace.Trace) (*Divergence, error) {
	sig, err := signature.Build(tr, signature.Options{TargetRatio: DiffTargetRatio})
	if err != nil {
		return nil, fmt.Errorf("staticsig: compress trace: %w", err)
	}
	return in.Diff(sig)
}

// Diff cross-validates the instance against a signature built by the
// trace pipeline for the same application, class and rank count. The
// traced signature should be compressed (a TargetRatio-folded build);
// shape comparison requires folded sequences to stay tractable.
func (in *Instance) Diff(traced *signature.Signature) (*Divergence, error) {
	if traced == nil {
		return nil, fmt.Errorf("staticsig: no traced signature to diff against")
	}
	if traced.NRanks != in.NRanks {
		return nil, fmt.Errorf("staticsig: rank counts differ: static %d, traced %d", in.NRanks, traced.NRanks)
	}
	cs := signature.Canon(in.Sig)
	ct := signature.Canon(traced)
	d := &Divergence{
		App: in.App, Class: in.Class, NRanks: in.NRanks,
		Structure:    signature.ScaledDiff(ct, cs),
		StaticEvents: in.Sig.TraceEvents, TracedEvents: traced.TraceEvents,
		Placeholders: in.Placeholders,
	}
	var staticWork, tracedWork float64
	for r := 0; r < in.NRanks; r++ {
		sTotals, sWork := totals(cs.PerRank[r])
		tTotals, tWork := totals(ct.PerRank[r])
		staticWork += sWork
		tracedWork += tWork
		for _, key := range keyUnion(sTotals, tTotals) {
			if in.PlaceholderKeys[key] {
				continue
			}
			a, b := sTotals[key], tTotals[key]
			if math.Abs(a-b) > ByteTolerance*math.Max(1, math.Max(a, b)) {
				d.Bytes = append(d.Bytes, ByteMismatch{Rank: r, Key: key, Static: a, Traced: b})
			}
		}
	}
	if staticWork > 0 {
		d.WorkScale = tracedWork / staticWork
	}
	return d, nil
}

// Clean reports whether structure and non-placeholder byte volumes
// agree.
func (d *Divergence) Clean() bool { return d.Structure == "" && len(d.Bytes) == 0 }

// Report renders the divergence as the skelvet -static-diff block.
func (d *Divergence) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s class %s on %d ranks: static %d ops, traced %d events\n",
		d.App, d.Class, d.NRanks, d.StaticEvents, d.TracedEvents)
	if d.Structure == "" {
		fmt.Fprintf(&b, "  structure: OK (scaled communication shapes match on all ranks)\n")
	} else {
		fmt.Fprintf(&b, "  structure: DIVERGED: %s\n", indentCont(d.Structure))
	}
	if len(d.Bytes) == 0 {
		fmt.Fprintf(&b, "  bytes: OK (non-placeholder volumes within %g%%)\n", ByteTolerance*100)
	} else {
		fmt.Fprintf(&b, "  bytes: %d slot(s) DIVERGED:\n", len(d.Bytes))
		for _, m := range d.Bytes {
			fmt.Fprintf(&b, "    rank %d %s: static %.0f vs traced %.0f bytes\n", m.Rank, m.Key, m.Static, m.Traced)
		}
	}
	if d.WorkScale > 0 {
		fmt.Fprintf(&b, "  compute scale (traced/static): %.3f\n", d.WorkScale)
	}
	for _, ph := range d.Placeholders {
		fmt.Fprintf(&b, "  placeholder: %s\n", ph)
	}
	return b.String()
}

func indentCont(s string) string {
	return strings.ReplaceAll(s, "\n", "\n    ")
}

// totals walks a canonical sequence with loop multiplicities and
// accumulates per-slot byte volumes and total compute work.
func totals(seq []signature.CanonNode) (map[string]float64, float64) {
	bytes := map[string]float64{}
	work := 0.0
	var walk func(seq []signature.CanonNode, mult float64)
	walk = func(seq []signature.CanonNode, mult float64) {
		for _, nd := range seq {
			if nd.Op == nil {
				walk(nd.Body, mult*float64(nd.Count))
				continue
			}
			if nd.Op.Kind == mpi.OpCompute {
				work += nd.Op.Work * mult
				continue
			}
			bytes[signature.CanonKey(*nd.Op)] += float64(nd.Op.Bytes) * mult
		}
	}
	walk(seq, 1)
	return bytes, work
}

func keyUnion(a, b map[string]float64) []string {
	seen := map[string]bool{}
	var keys []string
	for k := range a {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range b {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
