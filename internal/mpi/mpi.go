// Package mpi implements the subset of MPI the paper's framework traces
// and regenerates, as a message-passing runtime over the simulated cluster
// (internal/cluster, internal/sim). Ranks run as virtual processes in
// virtual time; point-to-point messages follow eager/rendezvous protocols
// with tag and source matching, and collectives are built from the
// standard algorithms (binomial trees, recursive doubling, pairwise
// exchange, ring), so their cost structure matches an MPICH-era
// implementation on switched Ethernet.
//
// This package is the substitution for the paper's MPICH installation
// (repro note: Go has no mature MPI bindings, so the messaging layer is
// built from scratch).
package mpi

import (
	"context"

	"perfskel/internal/cluster"
	"perfskel/internal/sim"
	"perfskel/internal/telemetry"
)

// DefaultEagerThreshold is the default largest message size sent
// eagerly; larger messages use the rendezvous protocol (see
// Config.EagerThreshold). Exported so tooling — in particular the
// skelvet sendsend-deadlock rule — can reason about which sends
// synchronise.
const DefaultEagerThreshold = 64 * 1024

// Config tunes the runtime's cost model. The zero value selects defaults
// matching an MPICH-on-Gigabit-era installation.
type Config struct {
	// EagerThreshold is the largest message size sent eagerly (buffered at
	// the receiver; the sender does not synchronise). Larger messages use
	// the rendezvous protocol. Default 64 KiB.
	EagerThreshold int64
	// CallOverhead is the CPU work each MPI call consumes, in
	// dedicated-processor seconds. Default 2 microseconds.
	CallOverhead float64
	// ReduceCostPerByte is the CPU work per byte of a reduction combine
	// step. Default 0.5 ns/byte (a 2 GB/s combine loop).
	ReduceCostPerByte float64
	// SelfLatency is the latency of a message between ranks on the same
	// node. Default 1 microsecond.
	SelfLatency float64
	// Placement maps rank to node. Default: rank i on node i mod nodes.
	Placement []int
	// Probe, when non-nil, observes rank lifecycle and every completed
	// MPI call as a span with its compute/blocked/transfer time split
	// (telemetry instrumentation). Nil disables the instrumentation at
	// zero cost; unlike Monitor, a Probe sees collective-internal wait
	// decomposition, not just call boundaries.
	Probe telemetry.MPIProbe `json:"-"`
}

// withDefaults fills zero fields with defaults. A negative cost field
// explicitly disables that cost (tests use this for exact timing).
func (c Config) withDefaults() Config {
	if c.EagerThreshold == 0 {
		c.EagerThreshold = DefaultEagerThreshold
	}
	if c.CallOverhead == 0 {
		c.CallOverhead = 2e-6
	} else if c.CallOverhead < 0 {
		c.CallOverhead = 0
	}
	if c.ReduceCostPerByte == 0 {
		c.ReduceCostPerByte = 0.5e-9
	} else if c.ReduceCostPerByte < 0 {
		c.ReduceCostPerByte = 0
	}
	if c.SelfLatency == 0 {
		c.SelfLatency = 1e-6
	} else if c.SelfLatency < 0 {
		c.SelfLatency = 0
	}
	return c
}

// World is one parallel program execution: nranks virtual processes on a
// cluster, exchanging messages.
type World struct {
	cl     *cluster.Cluster
	cfg    Config
	mon    Monitor
	cp     telemetry.CausalProbe // Probe's causal extension, when implemented
	ranks  []*rankState
	finish float64 // virtual time the last rank finished

	// Free lists of recycled messages and receive requests (see
	// waitDone). One coroutine drives a world at a time, so plain
	// slices need no lock and reuse order stays deterministic.
	freeMsgs []*message
	freeReqs []*Request
}

type rankState struct {
	comm    *Comm
	proc    *sim.Proc
	node    int
	pending []*message // arrived-or-announced but unmatched messages, arrival order
	posted  []*Request // posted but unmatched receives, post order
	collSeq int        // per-rank collective sequence for tag isolation

	// split accumulates the current public operation's time
	// decomposition; beginOp resets it, record reads it. Only
	// maintained while the world has a probe.
	split telemetry.Split
}

// Comm is a rank's handle to the world: the public MPI-like API. All
// methods must be called from the rank's own process (inside the app
// function passed to Run).
type Comm struct {
	w    *World
	rank int
}

// App is the per-rank program body, the analogue of main() in an MPI
// program. It is invoked once per rank; Comm identifies the rank.
type App func(c *Comm)

// Run executes app as nranks ranks on cl and returns the parallel
// execution time (virtual seconds until the last rank finishes). mon, if
// non-nil, observes every MPI call (the profiling-library interposition of
// the paper). Run drives cl's engine and can be used once per cluster; to
// co-schedule several applications on one cluster, use Launch.
func Run(cl *cluster.Cluster, nranks int, cfg Config, mon Monitor, app App) (float64, error) {
	return RunContext(context.Background(), cl, nranks, cfg, mon, app)
}

// RunContext is Run with a cancellation context: the simulation engine
// checks ctx at event granularity and aborts with an error wrapping
// ctx.Err() once it is done, so an abandoned run stops burning CPU
// within microseconds instead of completing. A Background context makes
// RunContext identical to Run.
func RunContext(ctx context.Context, cl *cluster.Cluster, nranks int, cfg Config, mon Monitor, app App) (float64, error) {
	if _, err := Launch(cl, nranks, cfg, mon, app); err != nil {
		return 0, err
	}
	cl.Engine.SetContext(ctx)
	err := cl.Engine.Run()
	return cl.Engine.Now(), err
}

// Rank returns the calling rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return len(c.w.ranks) }

// Node returns the node index the rank is placed on.
func (c *Comm) Node() int { return c.w.ranks[c.rank].node }

// Now returns the current virtual time in seconds.
func (c *Comm) Now() float64 { return c.w.cl.Engine.Now() }

func (c *Comm) state() *rankState { return c.w.ranks[c.rank] }

// Compute performs the given amount of computation, expressed in
// dedicated-processor seconds; under CPU contention it takes
// proportionally longer. It is the only way application code consumes
// CPU time outside MPI calls.
func (c *Comm) Compute(work float64) {
	if work <= 0 {
		return
	}
	st := c.state()
	st.proc.Compute(c.w.cl.CPU(st.node), work)
}

// overhead charges one MPI call's CPU cost. Under a probe, the elapsed
// virtual time (which exceeds the charged work under CPU contention) is
// attributed to the current operation's compute share.
func (c *Comm) overhead() {
	if c.w.cfg.CallOverhead <= 0 {
		return
	}
	st := c.state()
	if c.w.cfg.Probe == nil {
		st.proc.Compute(c.w.cl.CPU(st.node), c.w.cfg.CallOverhead)
		return
	}
	t0 := c.Now()
	st.proc.Compute(c.w.cl.CPU(st.node), c.w.cfg.CallOverhead)
	st.split.Compute += c.Now() - t0
}

// reduceCost charges the CPU cost of combining bytes in a reduction.
func (c *Comm) reduceCost(bytes int64) {
	if bytes <= 0 {
		return
	}
	st := c.state()
	work := float64(bytes) * c.w.cfg.ReduceCostPerByte
	if c.w.cfg.Probe == nil {
		st.proc.Compute(c.w.cl.CPU(st.node), work)
		return
	}
	t0 := c.Now()
	st.proc.Compute(c.w.cl.CPU(st.node), work)
	st.split.Compute += c.Now() - t0
}

// beginOp marks the start of a public MPI call: it resets the rank's
// split accumulator (when probed) and returns the start time.
func (c *Comm) beginOp() float64 {
	if c.w.cfg.Probe != nil {
		c.state().split = telemetry.Split{}
	}
	return c.Now()
}

func (c *Comm) record(rec OpRecord) {
	if p := c.w.cfg.Probe; p != nil {
		st := c.state()
		p.OpSpan(c.rank, rec.Op.String(), rec.Op.IsCollective(), rec.Peer, rec.Bytes, rec.Tag,
			c.w.pathClass(rec), rec.Start, rec.End, st.split)
	}
	if c.w.mon != nil {
		c.w.mon.Record(c.rank, rec)
	}
}

// pathClass labels a point-to-point record's protocol path for the
// probe: eager or rendezvous by the configured threshold. Collectives,
// receive posts (size unknown) and waitalls get no label.
func (w *World) pathClass(rec OpRecord) string {
	switch rec.Op {
	case OpSend, OpRecv, OpIsend, OpSendrecv:
	case OpWait:
		if rec.Sub == OpIrecv && rec.Bytes == 0 {
			return ""
		}
	default:
		return ""
	}
	if rec.Bytes <= w.cfg.EagerThreshold {
		return telemetry.PathEager
	}
	return telemetry.PathRendezvous
}
