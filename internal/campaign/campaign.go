// Package campaign is the batch execution layer of perfskel: a
// concurrent sweep engine that takes a declarative grid of simulation
// cells — (app, nranks, topology, scenario, K, mode) — fans them out
// over a bounded worker pool, deduplicates identical cells through a
// canonical content-addressed key, and memoizes every result in an
// in-memory (plus optional on-disk) cache, so dedicated baselines and
// repeated ratio measurements are computed once per campaign instead of
// once per table cell.
//
// Parallelism is safe because every simulation is an isolated world: a
// cell's execution builds a fresh cluster.Cluster on a fresh sim.Engine,
// shares no mutable state with any other cell, and is fully
// deterministic. Cell values are therefore pure functions of their
// canonical labels, which has two consequences the tests pin down:
// results are byte-identical at any worker count, and a cache hit is
// indistinguishable from a fresh run.
//
// Observability survives the fan-out: with Config.Telemetry set, every
// executed cell carries its own telemetry.Collector, and the engine's
// merged exports order cells by canonical label, so the merged Perfetto
// trace and metrics files are byte-identical regardless of worker count
// or completion schedule.
package campaign

import (
	"context"
	"fmt"
	"runtime"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/nas"
	"perfskel/internal/signature"
	"perfskel/internal/skeleton"
	"perfskel/internal/telemetry"
	"perfskel/internal/trace"
)

// App is a per-rank program plus the stable identity the cache keys it
// by. Two App values with equal IDs are assumed to be the same program;
// NASApp guarantees that, CustomApp makes it the caller's contract.
type App struct {
	// ID is the app's canonical identity, e.g. "nas:CG:B".
	ID string
	// Fn is the per-rank program body.
	Fn mpi.App
	// Static, when set, is a statically synthesized execution signature
	// skeleton cells build from instead of tracing Fn. A static cell
	// with a nil Fn never simulates the application at all.
	Static *StaticSig
}

// StaticSig is a statically synthesized execution signature plus the
// content key that addresses it. The key must change whenever the
// signature does — internal/analysis/staticsig derives it from the app
// name, problem class, rank count and a hash of the analyzed source, so
// editing the program invalidates the cache entry.
type StaticSig struct {
	// Key content-addresses the signature, e.g.
	// "static|app=CG|class=S|p=4|src=1a2b…".
	Key string
	// Sig is the synthesized signature skeletons are built from.
	Sig *signature.Signature
}

// StaticApp wraps a statically synthesized signature as a campaign app.
// Skeleton cells (K >= 1) build directly from the signature with no
// trace dependency; application cells (K == 0) are rejected because a
// static app carries no program body to simulate, and predictions take
// the signature's modeled AppTime as their dedicated baseline. Attach
// Fn afterwards to mix static skeleton cells with app-run cells (and a
// simulated baseline) of the same program. Those app runs are keyed by
// the static app's identity, not by Fn, so a traced app with the same Fn
// in the same campaign shares none of them: each app simulates its own
// dedicated and measured runs.
func StaticApp(s *StaticSig) App {
	return App{ID: "static:" + s.Key, Static: s}
}

// NASApp returns the named NAS benchmark as a campaign app with the
// canonical identity "nas:<name>:<class>".
func NASApp(name string, class nas.Class) (App, error) {
	fn, err := nas.App(name, class)
	if err != nil {
		return App{}, err
	}
	return App{ID: "nas:" + name + ":" + string(class), Fn: fn}, nil
}

// CustomApp wraps an arbitrary program body under a caller-chosen
// identity. The caller owns the contract that the identity changes
// whenever the program's behaviour does — an on-disk cache entry written
// under a stale identity would otherwise be served for a different
// program.
func CustomApp(id string, fn mpi.App) App { return App{ID: "custom:" + id, Fn: fn} }

// Config tunes one engine.
type Config struct {
	// Workers bounds the number of simulations executing concurrently
	// (the worker pool size). Zero means GOMAXPROCS.
	Workers int
	// CacheDir, when non-empty, backs the in-memory cache with a
	// directory of content-addressed JSON files shared across processes.
	CacheDir string
	// Telemetry attaches a fresh collector to every executed cell. It
	// also makes the engine ignore on-disk cache entries when reading
	// (still writing them): a disk hit executes no simulation and so has
	// nothing to observe, and a merged export with silently missing cells
	// would be worse than a slower campaign.
	Telemetry bool
	// MPI is the runtime cost model every cell runs under.
	MPI mpi.Config
	// Skeleton is the construction option set for skeleton cells. A
	// cell's Mode field overrides Skeleton.Mode when non-zero.
	Skeleton skeleton.Options
}

// Cell is one grid cell: an application (K == 0) or its K-skeleton
// (K >= 1) executed under a scenario.
type Cell struct {
	App    App
	NRanks int
	// Topo is the cluster topology; the zero value means the paper's
	// n-node dual-CPU testbed.
	Topo     cluster.Topology
	Scenario cluster.Scenario
	// K selects what runs: 0 the application itself, >= 1 the
	// performance skeleton with that scaling factor (constructed from
	// the application's dedicated trace on the cell's topology).
	K int
	// Mode overrides the engine's skeleton scale mode when non-zero
	// (ByteScale is the zero value and the default).
	Mode skeleton.ScaleMode
}

// RunResult is one executed (or cache-satisfied) cell's outcome.
type RunResult struct {
	// Time is the run's parallel execution time in virtual seconds.
	Time float64
	// Stats is the run's trace-derived time breakdown. Dedicated runs
	// and skeleton runs carry it; an application run (K == 0) under any
	// other scenario is the measured actual a prediction is checked
	// against, is only timed, and carries nil. Treat as read-only: the
	// value is shared with the cache.
	Stats *trace.Stats
	// Telemetry is the cell's collector when the engine was configured
	// with Config.Telemetry and this process executed the cell.
	Telemetry *telemetry.Collector
}

// Engine is a campaign's executor: the worker pool plus the
// content-addressed run cache. An Engine is safe for concurrent use; all
// methods may be called from any goroutine.
type Engine struct {
	cfg  Config
	memo *memo
	sem  chan struct{}
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		//skelvet:ignore nondeterminism default pool size only; cell values are byte-identical at any worker count
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		cfg:  cfg,
		memo: newMemo(cfg.CacheDir),
		sem:  make(chan struct{}, cfg.Workers),
	}
}

// acquire takes a worker slot, or gives up when ctx is done first — a
// canceled request must not go on to burn a simulation slot. Compute
// functions hold a slot only around actual simulation or construction
// work, never while waiting on another cell, so the pool cannot
// deadlock on dependencies.
func (e *Engine) acquire(ctx context.Context) error {
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
func (e *Engine) release() { <-e.sem }

// dedicatedCanon is the canonical form of the unshared baseline scenario;
// app-run cells matching it keep their trace's ladder in memory for
// skeleton construction.
var dedicatedCanon = func() string {
	c, err := cluster.CanonScenario(cluster.Dedicated())
	if err != nil {
		panic(err)
	}
	return c
}()

// norm validates a cell and fills defaults.
func (e *Engine) norm(c Cell) (Cell, error) {
	if c.App.Fn == nil && c.App.Static == nil {
		return c, fmt.Errorf("campaign: cell has no app (App.Fn nil)")
	}
	if c.App.Fn == nil && c.K == 0 {
		return c, fmt.Errorf("campaign: static app %s has no program body; app-run cells need K >= 1", c.App.ID)
	}
	if c.App.Static != nil && (c.App.Static.Key == "" || c.App.Static.Sig == nil) {
		return c, fmt.Errorf("campaign: static app needs both a content key and a signature")
	}
	if c.App.ID == "" {
		return c, fmt.Errorf("campaign: app has no identity (App.ID empty)")
	}
	if c.NRanks < 1 {
		return c, fmt.Errorf("campaign: cell needs at least 1 rank, got %d", c.NRanks)
	}
	if c.K < 0 {
		return c, fmt.Errorf("campaign: negative scaling factor %d: %w", c.K, skeleton.ErrBadK)
	}
	if len(c.Topo.Nodes) == 0 {
		c.Topo = cluster.Testbed(c.NRanks)
	}
	return c, nil
}

// skelOpts returns the effective construction options for a cell.
func (e *Engine) skelOpts(c Cell) skeleton.Options {
	o := e.cfg.Skeleton
	if c.Mode != 0 {
		o.Mode = c.Mode
	}
	return o
}

// Run executes one cell — the application when K == 0, the K-skeleton
// otherwise — returning its execution time and statistics. Identical
// cells are simulated once per engine (and once per cache directory).
func (e *Engine) Run(c Cell) (RunResult, error) {
	return e.RunContext(context.Background(), c)
}

// RunContext is Run with a cancellation context: the context is checked
// while waiting for a worker slot and at simulation-event granularity
// inside the run itself, so an abandoned request stops almost
// immediately. A cancellation never poisons the cache — the cell is
// recomputed by the next request that wants it.
func (e *Engine) RunContext(ctx context.Context, c Cell) (RunResult, error) {
	c, err := e.norm(c)
	if err != nil {
		return RunResult{}, err
	}
	l, err := e.labelsFor(c)
	if err != nil {
		return RunResult{}, err
	}
	var v cellValue
	if c.K == 0 {
		v, err = e.appRun(ctx, c, l)
	} else {
		v, err = e.skelRun(ctx, c, l)
	}
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{Time: v.time, Stats: v.stats, Telemetry: v.tel}, nil
}

// Construct builds (or recalls) the cell's performance skeleton and its
// execution signature. The trace behind it is the application's
// dedicated run on the cell's topology.
func (e *Engine) Construct(c Cell) (*skeleton.Program, *signature.Signature, error) {
	return e.ConstructContext(context.Background(), c)
}

// ConstructContext is Construct with a cancellation context (see
// RunContext).
func (e *Engine) ConstructContext(ctx context.Context, c Cell) (*skeleton.Program, *signature.Signature, error) {
	c, err := e.norm(c)
	if err != nil {
		return nil, nil, err
	}
	if c.K < 1 {
		return nil, nil, fmt.Errorf("campaign: Construct needs K >= 1, got %d: %w", c.K, skeleton.ErrBadK)
	}
	l, err := e.labelsFor(c)
	if err != nil {
		return nil, nil, err
	}
	v, err := e.build(ctx, c, l)
	if err != nil {
		return nil, nil, err
	}
	return v.prog, v.sig, nil
}

// Stats returns the cache counters accumulated so far. A skeleton build
// takes its trace's ladder from the dedicated application run cell, so
// each build that is not itself a hit counts one hit or miss on that run
// cell, plus one on the memory-only ladder cell when the run was served
// from disk.
func (e *Engine) Stats() Stats { return e.memo.snapshot() }

// newProbe returns a fresh collector when telemetry is on.
func (e *Engine) newProbe() (*telemetry.Collector, telemetry.Sink, mpi.Config) {
	cfg := e.cfg.MPI
	if !e.cfg.Telemetry {
		return nil, nil, cfg
	}
	col := telemetry.NewCollector()
	cfg.Probe = col
	return col, col, cfg
}

// appRun memoizes one application execution. The dedicated run of a
// traced app hands its trace to signature.NewLadder inside the cell and
// keeps the ladder, never the trace, so skeleton builds reuse it without
// re-simulating. A static app's skeletons build from its signature, so
// its dedicated run records its statistics alone. A run under any other
// scenario is the measured actual a prediction is checked against: it is
// only timed, runs with no monitor and carries no Stats.
func (e *Engine) appRun(ctx context.Context, c Cell, l labels) (cellValue, error) {
	dedicated := l.sc == dedicatedCanon
	kind := timedRun
	if dedicated {
		kind = statsRun
	}
	return e.memo.do(ctx, appRunLabel(c, l), kind, !e.cfg.Telemetry, func(ctx context.Context) (cellValue, error) {
		col, sink, cfg := e.newProbe()
		cl := cluster.BuildProbed(c.Topo, c.Scenario, sink)
		var rec *trace.Recorder
		var srec *trace.StatsRecorder
		var mon mpi.Monitor // stays nil for a measured run
		switch {
		case dedicated && c.App.Static == nil:
			rec = trace.NewRecorder(c.NRanks)
			mon = rec
		case dedicated:
			srec = trace.NewStatsRecorder(c.NRanks)
			mon = srec
		}
		if err := e.acquire(ctx); err != nil {
			return cellValue{}, err
		}
		defer e.release()
		e.memo.stats.sims.Add(1)
		dur, err := mpi.RunContext(ctx, cl, c.NRanks, cfg, mon, c.App.Fn)
		if err != nil {
			return cellValue{}, fmt.Errorf("campaign: %s under %s: %w", c.App.ID, c.Scenario.Name, err)
		}
		v := cellValue{time: dur, tel: col}
		if rec != nil {
			tr := rec.Finish(dur)
			st := tr.Stats()
			v.stats = &st
			v.ladder, v.ladderErr = signature.NewLadder(tr)
		} else if srec != nil {
			st := srec.Finish(dur)
			v.stats = &st
		}
		return v, nil
	})
}

// ladder returns the threshold ladder of the application's dedicated
// trace on the cell's topology. Every K and every construction option
// set builds from the one ladder, so each threshold step is clustered
// and folded once per trace. The dedicated run cell keeps it; when that
// cell was satisfied from disk it carries no ladder, and one
// memory-only cell re-simulates the run to make it.
func (e *Engine) ladder(ctx context.Context, c Cell) (*signature.Ladder, error) {
	d := c
	d.K = 0
	d.Scenario = cluster.Dedicated()
	l, err := e.labelsFor(d)
	if err != nil {
		return nil, err
	}
	v, err := e.appRun(ctx, d, l)
	if err != nil {
		return nil, err
	}
	if v.ladder != nil || v.ladderErr != nil {
		return v.ladder, v.ladderErr
	}
	v, err = e.memo.do(ctx, ladderLabel(d, l), memOnly, false, func(ctx context.Context) (cellValue, error) {
		cl := cluster.Build(d.Topo, d.Scenario)
		rec := trace.NewRecorder(d.NRanks)
		if err := e.acquire(ctx); err != nil {
			return cellValue{}, err
		}
		defer e.release()
		e.memo.stats.sims.Add(1)
		dur, err := mpi.RunContext(ctx, cl, d.NRanks, e.cfg.MPI, rec, d.App.Fn)
		if err != nil {
			return cellValue{}, err
		}
		lad, err := signature.NewLadder(rec.Finish(dur))
		return cellValue{ladder: lad}, err
	})
	return v.ladder, err
}

// build memoizes one skeleton construction. Static cells build from
// their synthesized signature and never touch the trace path; their
// label carries the static content key through App.ID, so a source edit
// (which changes the hash inside the key) misses the cache.
func (e *Engine) build(ctx context.Context, c Cell, l labels) (cellValue, error) {
	opts := e.skelOpts(c)
	if c.App.Static != nil {
		return e.memo.do(ctx, buildLabel(c, l, opts), buildCell, !e.cfg.Telemetry, func(ctx context.Context) (cellValue, error) {
			if err := e.acquire(ctx); err != nil {
				return cellValue{}, err
			}
			prog, err := skeleton.BuildOpts(c.App.Static.Sig, c.K, opts)
			e.release()
			if err != nil {
				return cellValue{}, fmt.Errorf("campaign: static skeleton K=%d of %s: %w", c.K, c.App.ID, err)
			}
			if err := prog.Consistent(); err != nil {
				return cellValue{}, fmt.Errorf("campaign: static skeleton K=%d of %s: %w", c.K, c.App.ID, err)
			}
			return cellValue{prog: prog, sig: c.App.Static.Sig}, nil
		})
	}
	return e.memo.do(ctx, buildLabel(c, l, opts), buildCell, !e.cfg.Telemetry, func(ctx context.Context) (cellValue, error) {
		lad, err := e.ladder(ctx, c)
		if err != nil {
			return cellValue{}, err
		}
		if err := e.acquire(ctx); err != nil {
			return cellValue{}, err
		}
		prog, sig, err := skeleton.BuildFromLadder(lad, c.K, opts)
		e.release()
		if err != nil {
			return cellValue{}, fmt.Errorf("campaign: skeleton K=%d of %s: %w", c.K, c.App.ID, err)
		}
		return cellValue{prog: prog, sig: sig}, nil
	})
}

// skelRun memoizes one skeleton execution under a scenario.
func (e *Engine) skelRun(ctx context.Context, c Cell, l labels) (cellValue, error) {
	opts := e.skelOpts(c)
	return e.memo.do(ctx, skelRunLabel(c, l, opts), statsRun, !e.cfg.Telemetry, func(ctx context.Context) (cellValue, error) {
		bv, err := e.build(ctx, c, l)
		if err != nil {
			return cellValue{}, err
		}
		col, sink, cfg := e.newProbe()
		cl := cluster.BuildProbed(c.Topo, c.Scenario, sink)
		rec := trace.NewStatsRecorder(c.NRanks)
		if err := e.acquire(ctx); err != nil {
			return cellValue{}, err
		}
		e.memo.stats.sims.Add(1)
		dur, err := skeleton.RunContext(ctx, bv.prog, cl, cfg, rec)
		e.release()
		if err != nil {
			return cellValue{}, fmt.Errorf("campaign: skeleton K=%d of %s under %s: %w", c.K, c.App.ID, c.Scenario.Name, err)
		}
		st := rec.Finish(dur)
		return cellValue{time: dur, stats: &st, tel: col}, nil
	})
}
