// Package perfskel automatically constructs and evaluates performance
// skeletons of message-passing programs, reproducing Sodhi & Subhlok,
// "Automatic Construction and Evaluation of Performance Skeletons"
// (IPPS 2005).
//
// A performance skeleton is a short-running synthetic program whose
// execution time under any resource-sharing scenario reflects the
// execution time of the application it represents: running the skeleton
// for a second or two predicts what the full application would take. The
// pipeline is
//
//	trace -> execution signature -> performance skeleton -> prediction
//
// Programs run on a simulated cluster testbed (virtual time, processor-
// sharing CPUs, max-min fair links) against an MPI-like runtime, so the
// whole pipeline is deterministic and needs no real cluster.
//
// # Quickstart
//
//	env := perfskel.NewTestbed(4, perfskel.Dedicated())
//	app, _ := perfskel.NASApp("CG", perfskel.ClassB)
//	tr, appTime, _ := env.Trace(4, app)
//
//	// Full construction pipeline: a ~5-second skeleton.
//	skel, _, _ := perfskel.Construct(tr, perfskel.WithTargetTime(5.0))
//
//	ded, _ := perfskel.NewTestbed(4, perfskel.Dedicated()).RunSkeleton(skel)
//	shared := perfskel.NewTestbed(4, perfskel.CPUOneNode())
//	t, _ := shared.RunSkeleton(skel)
//	predicted := perfskel.PredictTime(appTime, ded, t)
//
// Construct is the one skeleton builder; functional options select the
// scaling factor (WithK, WithTargetTime), the clustering
// (WithSignatureOptions), the skeleton options (WithSkeletonOptions)
// and trace-free static synthesis (WithStaticSource). For sweeps over many applications, scenarios and scaling
// factors, NewCampaign runs the whole grid concurrently with
// content-addressed caching of shared baselines.
package perfskel

import (
	"context"

	"perfskel/internal/cluster"
	"perfskel/internal/gridsel"
	"perfskel/internal/mpi"
	"perfskel/internal/nas"
	"perfskel/internal/predict"
	"perfskel/internal/signature"
	"perfskel/internal/skeleton"
	"perfskel/internal/telemetry"
	"perfskel/internal/trace"
)

// Re-exported core types. Comm is the MPI-like per-rank handle application
// code runs against; Trace, Signature and Skeleton are the pipeline's
// intermediate artefacts.
type (
	// Comm is a rank's communicator: the MPI-subset API (Send, Recv,
	// Isend, Irecv, Wait, collectives, Compute).
	Comm = mpi.Comm
	// App is a per-rank program body.
	App = mpi.App
	// Op identifies an operation kind in traces and skeletons.
	Op = mpi.Op
	// Request is a non-blocking operation handle.
	Request = mpi.Request
	// Status describes a completed receive.
	Status = mpi.Status
	// Trace is a recorded execution trace.
	Trace = trace.Trace
	// TraceEvent is one trace entry.
	TraceEvent = trace.Event
	// Signature is a compressed execution signature.
	Signature = signature.Signature
	// SignatureOptions tunes signature construction.
	SignatureOptions = signature.Options
	// Skeleton is an executable performance skeleton program.
	Skeleton = skeleton.Program
	// Scenario is a resource-sharing configuration.
	Scenario = cluster.Scenario
	// Topology describes a simulated cluster.
	Topology = cluster.Topology
	// MPIConfig tunes the message-passing runtime's cost model.
	MPIConfig = mpi.Config
	// Class selects a NAS problem class.
	Class = nas.Class
)

// NAS problem classes.
const (
	ClassS = nas.ClassS
	ClassW = nas.ClassW
	ClassA = nas.ClassA
	ClassB = nas.ClassB
)

// Receive wildcards.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
)

// The paper's resource-sharing scenarios.
var (
	// Dedicated is the unshared baseline.
	Dedicated = cluster.Dedicated
	// CPUOneNode adds two competing compute processes on one node.
	CPUOneNode = cluster.CPUOneNode
	// CPUAllNodes adds two competing compute processes on every node.
	CPUAllNodes = cluster.CPUAllNodes
	// NetOneLink shapes one link to 10 Mbps.
	NetOneLink = cluster.NetOneLink
	// NetAllLinks shapes every link to 10 Mbps.
	NetAllLinks = cluster.NetAllLinks
	// Combined is CPUOneNode plus NetOneLink.
	Combined = cluster.Combined
	// PaperScenarios returns the paper's five scenarios in order.
	PaperScenarios = cluster.PaperScenarios
)

// Env is a simulated execution environment: a cluster topology under a
// resource-sharing scenario. Each Run builds a fresh simulation, so an Env
// is reusable and safe for repeated measurements.
type Env struct {
	Topo Topology
	Sc   Scenario
	// MPI tunes the runtime cost model; the zero value uses defaults.
	MPI MPIConfig
	// Observe, when non-nil, collects telemetry from every subsequent
	// run in this environment: simulator probes, per-rank MPI operation
	// spans with their compute/blocked/transfer split, and scenario
	// lifecycle. Use a fresh collector per run (NewTelemetry).
	Observe *Telemetry
}

// Telemetry collects a run's probe events: a virtual-clock metrics
// registry plus the records behind the Perfetto export, the rank
// timeline and the phase profile (see internal/telemetry).
type Telemetry = telemetry.Collector

// NewTelemetry returns an empty telemetry collector to assign to
// Env.Observe.
func NewTelemetry() *Telemetry { return telemetry.NewCollector() }

// ProfileDiff aligns an application run's phase profile against a
// skeleton run's and attributes the prediction error to compute,
// communication and blocking per phase region. ratio is the measured
// scaling ratio; buckets 0 picks a default granularity.
func ProfileDiff(app, skel *telemetry.Profile, ratio float64, buckets int) *telemetry.DiffReport {
	return telemetry.Diff(app, skel, ratio, buckets)
}

// build instantiates the environment's cluster, attaching the observer
// when present.
func (e *Env) build() *cluster.Cluster {
	var sink telemetry.Sink
	if e.Observe != nil {
		sink = e.Observe
	}
	return cluster.BuildProbed(e.Topo, e.Sc, sink)
}

// mpiConfig returns the runtime config with the observer wired in.
func (e *Env) mpiConfig() MPIConfig {
	cfg := e.MPI
	if e.Observe != nil {
		cfg.Probe = e.Observe
	}
	return cfg
}

// NewTestbed returns the paper's testbed — n dual-CPU nodes on Gigabit
// Ethernet — under the given scenario.
func NewTestbed(n int, sc Scenario) *Env {
	return &Env{Topo: cluster.Testbed(n), Sc: sc}
}

// NewEnv returns an environment with a custom topology.
func NewEnv(topo Topology, sc Scenario) *Env { return &Env{Topo: topo, Sc: sc} }

// Run executes app as nranks ranks and returns the parallel execution
// time in virtual seconds. It is RunContext with a Background context.
func (e *Env) Run(nranks int, app App) (float64, error) {
	return e.RunContext(context.Background(), nranks, app)
}

// RunContext is Run with a cancellation context. The simulation engine
// checks ctx at event granularity and aborts with an error wrapping
// ctx.Err() once it is done, so an abandoned run stops burning CPU
// within microseconds instead of completing; every virtual process is
// unwound before RunContext returns.
func (e *Env) RunContext(ctx context.Context, nranks int, app App) (float64, error) {
	return mpi.RunContext(ctx, e.build(), nranks, e.mpiConfig(), nil, app)
}

// Trace executes app and records its execution trace (the paper's
// profiling-library step). Returns the trace and the execution time. It
// is TraceContext with a Background context.
func (e *Env) Trace(nranks int, app App) (*Trace, float64, error) {
	return e.TraceContext(context.Background(), nranks, app)
}

// TraceContext is Trace with a cancellation context (see RunContext).
func (e *Env) TraceContext(ctx context.Context, nranks int, app App) (*Trace, float64, error) {
	rec := trace.NewRecorder(nranks)
	dur, err := mpi.RunContext(ctx, e.build(), nranks, e.mpiConfig(), rec, app)
	if err != nil {
		return nil, 0, err
	}
	return rec.Finish(dur), dur, nil
}

// RunSkeleton executes a performance skeleton and returns its execution
// time. It is RunSkeletonContext with a Background context.
func (e *Env) RunSkeleton(p *Skeleton) (float64, error) {
	return e.RunSkeletonContext(context.Background(), p)
}

// RunSkeletonContext is RunSkeleton with a cancellation context (see
// RunContext).
func (e *Env) RunSkeletonContext(ctx context.Context, p *Skeleton) (float64, error) {
	return skeleton.RunContext(ctx, p, e.build(), e.mpiConfig(), nil)
}

// MinGoodSkeletonTime estimates the shortest skeleton that still predicts
// reliably (one full iteration of the dominant execution sequence, paper
// section 3.4).
func MinGoodSkeletonTime(sig *Signature) float64 {
	return skeleton.MinGoodTime(sig, skeleton.DefaultCoverage)
}

// PredictTime predicts the application's execution time in a scenario
// from its dedicated time, the skeleton's dedicated time, and the
// skeleton's time in the scenario (paper section 4.2: skeleton time times
// the measured scaling ratio).
func PredictTime(appDedicated, skelDedicated, skelScenario float64) float64 {
	return predict.Predict(skelScenario, predict.Ratio(appDedicated, skelDedicated))
}

// PredictionErrorPct returns the relative prediction error in percent.
func PredictionErrorPct(predicted, actual float64) float64 {
	return predict.ErrorPct(predicted, actual)
}

// CSource renders a skeleton as a standalone C/MPI program.
func CSource(p *Skeleton) string { return skeleton.CSource(p) }

// GoSource renders a skeleton as a Go program against this package.
func GoSource(p *Skeleton) string { return skeleton.GoSource(p) }

// NASApp returns one of the six NAS Parallel Benchmark models (BT, CG,
// IS, LU, MG, SP) at the given class.
func NASApp(name string, class Class) (App, error) { return nas.App(name, class) }

// NASBenchmarks lists the available benchmark names.
func NASBenchmarks() []string { return nas.Benchmarks() }

// SkeletonOptions tunes skeleton construction beyond the paper's defaults
// (communication scale mode, compute-duration distributions).
type SkeletonOptions = skeleton.Options

// Communication scaling modes for SkeletonOptions.Mode.
const (
	// ByteScale divides message bytes by K (the paper's method).
	ByteScale = skeleton.ByteScale
	// TimeScale divides estimated message time by K under assumed
	// latency/bandwidth, dropping latency-bound symmetric operations.
	TimeScale = skeleton.TimeScale
)

// RescaleSkeleton retargets a skeleton built from an n-rank trace to m
// ranks (weak scaling; SPMD programs whose ranks differ only in
// communication partners).
func RescaleSkeleton(p *Skeleton, m int) (*Skeleton, error) { return skeleton.Rescale(p, m) }

// ScenarioByName returns "dedicated" or one of the five sharing scenarios
// by name for an n-node cluster.
func ScenarioByName(name string, n int) (Scenario, error) { return cluster.ByName(name, n) }

// CrossTraffic describes stochastic background flows; combine with a
// scenario via WithCrossTraffic.
type CrossTraffic = cluster.CrossTraffic

// WithCrossTraffic adds background network traffic to a scenario.
func WithCrossTraffic(sc Scenario, t CrossTraffic) Scenario {
	return cluster.WithCrossTraffic(sc, t)
}

// LoadTrace reads a trace file written by Trace.Save or skel trace.
func LoadTrace(path string) (*Trace, error) { return trace.Load(path) }

// LoadSignature reads a signature file written by Signature.Save.
func LoadSignature(path string) (*Signature, error) { return signature.Load(path) }

// LoadSkeleton reads a skeleton program written by Skeleton.Save or
// skel gen.
func LoadSkeleton(path string) (*Skeleton, error) { return skeleton.Load(path) }

// Candidate is a node set under consideration for resource selection.
type Candidate = gridsel.Candidate

// Estimate is a skeleton-probe result for one candidate.
type Estimate = gridsel.Estimate

// Selector ranks candidate node sets by skeleton probes — the paper's
// motivating resource-selection use case.
type Selector = gridsel.Selector

// NewSelector builds a resource selector from a skeleton and the
// application's dedicated execution time, measuring the scaling ratio on
// the given reference testbed.
func NewSelector(skel *Skeleton, appDedicated float64, ref Topology) (*Selector, error) {
	return gridsel.NewSelector(skel, appDedicated, ref, MPIConfig{})
}

// TestbedTopology returns the paper's n-node dual-CPU topology, for
// building heterogeneous Candidate variants.
func TestbedTopology(n int) Topology { return cluster.Testbed(n) }
