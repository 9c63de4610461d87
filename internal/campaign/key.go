package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/skeleton"
)

// Content addressing. Every cache cell is identified by a canonical
// label: a human-readable string covering everything that determines the
// cell's value — the app identity, the rank count, the topology and
// scenario canonical forms (internal/cluster), the MPI cost model, and
// for skeleton cells the scaling factor and construction options. The
// simulator is deterministic, so equal labels imply equal values, which
// is what makes the label a safe cache identity. The on-disk cache files
// are named by the label's SHA-256 so arbitrary scenario names cannot
// escape the cache directory.
//
// Labels are conservative: option structs are canonicalized with their
// raw field values, so a config spelling a default explicitly gets a
// different label than the zero value. That can only cause a redundant
// recompute, never a wrong cache hit.

// canonMPI renders the runtime cost model's canonical form. The Probe
// field is instrumentation, not model input, and is excluded.
func canonMPI(c mpi.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mpi{eager=%d;call=%g;reduce=%g;self=%g",
		c.EagerThreshold, c.CallOverhead, c.ReduceCostPerByte, c.SelfLatency)
	if len(c.Placement) > 0 {
		b.WriteString(";place=[")
		for i, p := range c.Placement {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", p)
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return b.String()
}

// canonSkelOpts renders the skeleton construction options' canonical
// form.
func canonSkelOpts(o skeleton.Options) string {
	return fmt.Sprintf("skel{mode=%d;lat=%g;bw=%g;spread=%v;cov=%g}",
		o.Mode, o.Latency, o.Bandwidth, o.SpreadCompute, o.Coverage)
}

// labels holds one normalized cell's canonical label components.
type labels struct {
	topo string
	sc   string
	mpi  string
}

func (e *Engine) labelsFor(c Cell) (labels, error) {
	scCanon, err := cluster.CanonScenario(c.Scenario)
	if err != nil {
		return labels{}, err
	}
	return labels{
		topo: cluster.CanonTopology(c.Topo),
		sc:   scCanon,
		mpi:  canonMPI(e.cfg.MPI),
	}, nil
}

// appRunLabel identifies one application execution.
func appRunLabel(c Cell, l labels) string {
	return fmt.Sprintf("run|app=%s|n=%d|%s|%s|%s", c.App.ID, c.NRanks, l.topo, l.sc, l.mpi)
}

// ladderLabel identifies the memory-only threshold ladder of a cell's
// dedicated trace, made by re-simulating the dedicated run when a disk
// hit satisfied the run cell. It carries no scenario, no K and no
// construction options: every skeleton of the trace builds from the one
// ladder.
func ladderLabel(c Cell, l labels) string {
	return fmt.Sprintf("ladder|app=%s|n=%d|%s|%s", c.App.ID, c.NRanks, l.topo, l.mpi)
}

// buildLabel identifies one skeleton construction. The trace behind it is
// always taken on the cell's topology under the dedicated scenario, so
// the target scenario does not contribute.
func buildLabel(c Cell, l labels, opts skeleton.Options) string {
	return fmt.Sprintf("build|app=%s|n=%d|%s|%s|k=%d|%s",
		c.App.ID, c.NRanks, l.topo, l.mpi, c.K, canonSkelOpts(opts))
}

// skelRunLabel identifies one skeleton execution under a scenario.
func skelRunLabel(c Cell, l labels, opts skeleton.Options) string {
	return fmt.Sprintf("srun|app=%s|n=%d|%s|%s|%s|k=%d|%s",
		c.App.ID, c.NRanks, l.topo, l.sc, l.mpi, c.K, canonSkelOpts(opts))
}

// keyOf hashes a canonical label into the on-disk cache filename stem.
func keyOf(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}
