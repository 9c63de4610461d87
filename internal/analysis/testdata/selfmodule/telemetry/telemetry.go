// Package telemetry is the observability substrate of perfskel: probe
// interfaces the simulator, the message-passing runtime and the cluster
// testbed report into, a virtual-clock metrics registry, a Chrome
// trace-event (Perfetto) exporter, a plain-text per-rank timeline
// renderer, and a profile-diff report that attributes skeleton prediction
// error to compute, communication and blocking per phase.
//
// The package sits below every other internal package: it imports nothing
// from perfskel, so sim, mpi and cluster can all depend on it without
// cycles. All probe vocabulary is therefore expressed in basic types
// (names as strings, ids as ints); the substrate layers translate.
//
// Every timestamp crossing a probe is virtual time from sim.Engine.Now(),
// never wall time. Because the simulator is deterministic, everything the
// collector accumulates — and everything the exporters render — is
// bit-identical across runs of the same program.
//
// Probes are nil-able at every call site: a layer holding a nil sink must
// skip the call entirely (`if probe != nil { ... }`), so disabled
// instrumentation costs neither allocations nor interface dispatch.
package telemetry

// Split decomposes the duration of one MPI operation span:
//
//   - Compute: CPU work charged inside the call (per-call overhead,
//     reduction combine cost), stretched by whatever CPU contention the
//     scenario imposes.
//   - Transfer: time the calling rank spent waiting while its own
//     message payload was on the wire (latency plus bandwidth-shared
//     flow time).
//   - Blocked: the remaining wait time — the rank was parked with no
//     payload of its own in flight, i.e. pure synchronisation delay
//     (the peer had not yet arrived).
//
// Residual span time not covered by the three (e.g. an eager send
// returning right after its overhead) is attributed to communication by
// the profile layer.
type Split struct {
	Compute  float64 `json:"compute"`
	Blocked  float64 `json:"blocked"`
	Transfer float64 `json:"transfer"`
}

// Add accumulates another split into s.
func (s *Split) Add(o Split) {
	s.Compute += o.Compute
	s.Blocked += o.Blocked
	s.Transfer += o.Transfer
}

// Total returns the sum of the three components.
func (s Split) Total() float64 { return s.Compute + s.Blocked + s.Transfer }

// Task kinds reported by SimProbe.TaskStart/TaskFinish. Plain strings so
// the simulator does not depend on telemetry constants.
const (
	TaskCompute = "compute"
	TaskFlow    = "flow"
	TaskTimer   = "timer"
)

// Message path classes reported by MPIProbe.OpSpan for point-to-point
// operations (empty for collectives and computes).
const (
	PathEager      = "eager"
	PathRendezvous = "rendezvous"
)

// Contender kinds reported by ClusterProbe.ContenderStart.
const (
	ContenderLoad    = "load"
	ContenderTraffic = "traffic"
)

// SimProbe observes the discrete-event simulator: virtual process state
// transitions, resource-consuming task lifecycle, and the per-CPU
// runnable counts and per-link flow rates the fluid models compute.
//
// All methods are invoked from the engine's single-threaded scheduling
// regime (exactly one proc or the scheduler runs at a time), so
// implementations need no locking.
type SimProbe interface {
	// ProcSpawn reports a new virtual process, before the engine runs.
	ProcSpawn(id int, name string, daemon bool)
	// ProcBlock reports that proc id parked at time t for the given
	// reason (the deadlock-report reason string).
	ProcBlock(t float64, id int, reason string)
	// ProcWake reports that proc id became runnable at time t. A wake
	// without a preceding block is the initial release at time zero.
	ProcWake(t float64, id int)
	// ProcDone reports that proc id's body returned at time t.
	ProcDone(t float64, id int)
	// TaskStart reports a new task: kind is TaskCompute, TaskFlow or
	// TaskTimer; where names the CPU group, the resource path
	// ("up0+down1"), or is empty for timers; amount is work units,
	// bytes, or the timer delay.
	TaskStart(t float64, id int64, kind, where string, amount float64)
	// TaskFinish reports task completion.
	TaskFinish(t float64, id int64, kind, where string)
	// CPULoad reports a change in the number of runnable compute tasks
	// on a CPU group.
	CPULoad(t float64, cpu string, runnable int)
	// LinkRate reports a change in a network resource's utilisation:
	// the number of flows crossing it and their summed rate in bytes/s.
	LinkRate(t float64, link string, flows int, rate float64)
}

// ResourceProbe is an optional extension of SimProbe for the simulator's
// per-event utilisation emissions. A simulator that holds a stable handle
// per CPU group or link can register each resource once and then report
// samples by dense integer id, sparing the sink a string-keyed lookup on
// every emission. Implementations are discovered by type assertion on the
// probe, so plain SimProbe sinks keep working unchanged; the id-based
// methods must produce exactly the same records as the equivalent
// CPULoad/LinkRate calls.
type ResourceProbe interface {
	// ResourceID registers a resource and returns its dense id: kind is
	// "cpu" or "link", name the same name CPULoad/LinkRate would carry.
	ResourceID(kind, name string) int
	// CPULoadID is CPULoad with a registered id in place of the name.
	CPULoadID(t float64, id int, runnable int)
	// LinkRateID is LinkRate with a registered id in place of the name.
	LinkRateID(t float64, id int, flows int, rate float64)
}

// Resource kinds passed to ResourceProbe.ResourceID.
const (
	ResourceCPU  = "cpu"
	ResourceLink = "link"
)

// MPIProbe observes the message-passing runtime: per-rank operation
// spans with their time decomposition, and rank lifecycle.
type MPIProbe interface {
	// RankStart reports rank placement before the engine runs.
	RankStart(rank, node int)
	// OpSpan reports one completed MPI call on rank: op is the MPI name
	// ("MPI_Send"), collective marks world-wide operations, peer/bytes/
	// tag are the call parameters (peer -2 when unused), path is
	// PathEager/PathRendezvous for point-to-point payloads ("" for
	// collectives), start/end are virtual seconds, and split decomposes
	// the span.
	OpSpan(rank int, op string, collective bool, peer int, bytes int64, tag int, path string, start, end float64, split Split)
	// RankFinish reports that the rank's program body returned at t.
	RankFinish(rank int, t float64)
}

// CausalProbe is an optional extension of MPIProbe. A runtime that can
// attribute message transfer windows and the causes of blocking waits
// reports them here, giving the critical-path layer
// (internal/telemetry/critpath) the cross-rank edges of the causal DAG.
// The three events obey an exactness contract the critical path rests
// on: a message's delivery time is entirely determined by its transfer
// window (MsgDeliver.t == MsgStart.t plus latency and flow time), and a
// blocking wait ends exactly when the message it names is delivered
// (WaitEnd.end == that message's MsgDeliver.t). Implementations are
// discovered by type assertion on Config.Probe, so plain MPIProbe sinks
// keep working unchanged.
type CausalProbe interface {
	// MsgStart reports that message id's payload began moving at time t:
	// src/dst are ranks, srcNode/dstNode their placements, path is
	// PathEager or PathRendezvous, collective marks collective-internal
	// traffic (the DAG's collective-alignment edges), and by is the rank
	// whose call triggered the transfer (the sender for eager sends, the
	// rank that completed the rendezvous match otherwise).
	MsgStart(id int64, src, dst, srcNode, dstNode, tag int, bytes int64, path string, collective bool, by int, t float64)
	// MsgDeliver reports that message id's last payload byte arrived at
	// time t.
	MsgDeliver(id int64, t float64)
	// WaitEnd reports one blocking wait on rank that parked at start and
	// woke at end because message msgID completed: op is "send" when the
	// wait was for the rank's own rendezvous send to drain, "recv" when
	// it was for an inbound message. Waits that never park (the request
	// had already completed) are not reported.
	WaitEnd(rank int, msgID int64, op string, start, end float64)
}

// Wait kinds reported by CausalProbe.WaitEnd.
const (
	WaitSend = "send"
	WaitRecv = "recv"
)

// ClusterProbe observes testbed construction: the scenario applied and
// the competing contenders (load processes, cross-traffic generators) it
// spawns.
type ClusterProbe interface {
	// ScenarioStart reports the scenario instantiated on an n-node
	// cluster, before anything runs.
	ScenarioStart(name string, nodes int)
	// ContenderStart reports one competing workload: kind is
	// ContenderLoad or ContenderTraffic, node its placement (-1 for
	// cluster-wide), name the spawned process name.
	ContenderStart(kind string, node int, name string)
}

// Sink is a full observer of all three substrate layers. *Collector is
// the standard implementation.
type Sink interface {
	SimProbe
	MPIProbe
	ClusterProbe
}
