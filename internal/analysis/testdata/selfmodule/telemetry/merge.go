package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Multi-run merge. A campaign executes many independent simulated worlds,
// each observed by its own Collector; the functions below combine those
// per-cell collectors into single artefacts whose bytes depend only on
// the (label, collector-content) set — never on the order the cells
// happened to finish in or how many workers ran them. Determinism comes
// from two rules: cells are always processed in sorted-label order, and
// every per-cell export is already byte-deterministic on its own.

// LabeledCollector pairs one run's collector with the stable label the
// merge orders by (campaigns use the cell's canonical cache label, which
// is unique per cell).
type LabeledCollector struct {
	Label string
	C     *Collector
}

// perfettoPidStride spaces the pid blocks of merged cells: cell i's
// events keep their intra-cell pid (1..3) shifted by i*perfettoPidStride,
// so every cell renders as its own process group in the Perfetto UI.
const perfettoPidStride = 4

// sortedByLabel returns the cells sorted by label without mutating the
// caller's slice. Duplicate labels would silently interleave two cells
// into one pid block, so they are rejected.
func sortedByLabel(cells []LabeledCollector) ([]LabeledCollector, error) {
	s := append([]LabeledCollector(nil), cells...)
	sort.Slice(s, func(i, j int) bool { return s[i].Label < s[j].Label })
	for i := 1; i < len(s); i++ {
		if s[i].Label == s[i-1].Label {
			return nil, fmt.Errorf("telemetry: duplicate merge label %q", s[i].Label)
		}
	}
	return s, nil
}

// WriteMergedPerfetto writes one Chrome trace-event file containing every
// cell's events, cells ordered and pid-spaced by label. Process names are
// prefixed with the cell label so the Perfetto UI groups each cell's
// ranks, procs and resources under its own heading. The output is
// byte-identical for the same set of cells regardless of input order.
func WriteMergedPerfetto(w io.Writer, cells []LabeledCollector) error {
	s, err := sortedByLabel(cells)
	if err != nil {
		return err
	}
	var all []traceEvent
	for i, lc := range s {
		base := i * perfettoPidStride
		for _, ev := range lc.C.PerfettoEvents() {
			ev.Pid += base
			if ev.Ph == "M" && ev.Name == "process_name" {
				var na nameArgs
				if err := json.Unmarshal(ev.Args, &na); err == nil {
					raw, _ := json.Marshal(nameArgs{Name: lc.Label + " · " + na.Name})
					ev.Args = raw
				}
			}
			if ev.ID != "" {
				// Flow ids are unique per cell only; prefix with the cell
				// index so arrows never bind across cells.
				ev.ID = fmt.Sprintf("c%d.%s", i, ev.ID)
			}
			all = append(all, ev)
		}
	}
	f := perfettoFile{DisplayTimeUnit: "ms", TraceEvents: all}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// MergedSnapshot maps each cell label to its metrics snapshot. The JSON
// form is deterministic: map keys marshal sorted, and each Snapshot is
// map-of-sorted-keys too.
func MergedSnapshot(cells []LabeledCollector) (map[string]Snapshot, error) {
	s, err := sortedByLabel(cells)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Snapshot, len(s))
	for _, lc := range s {
		out[lc.Label] = lc.C.Metrics.Snapshot()
	}
	return out, nil
}

// WriteMergedMetrics writes the merged snapshot as indented JSON.
func WriteMergedMetrics(w io.Writer, cells []LabeledCollector) error {
	m, err := MergedSnapshot(cells)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
