package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/predict"
	"perfskel/internal/signature"
	"perfskel/internal/skeleton"
	"perfskel/internal/trace"
)

// group is one application at one rank count together with the cells
// predicted for it. Its cells share the dedicated application run and,
// per scaling factor, the skeleton build and dedicated skeleton run —
// the same sharing the campaign engine's memo gives them.
type group struct {
	id     string  // application identity, as in campaign.Prediction.App
	fn     mpi.App // program body: dedicated baseline and measured runs
	nranks int
	// static, when set, is the statically synthesized signature the
	// skeleton is built from instead of the dedicated trace.
	static *signature.Signature
	cells  []cell
	mode   skeleton.ScaleMode
}

// cell is one prediction: a scaling factor and a target scenario, with
// the application also run under the scenario when measure is set.
type cell struct {
	id      string
	k       int
	sc      cluster.Scenario
	measure bool
}

// outcome is one replayed cell's prediction (and measured actual).
type outcome struct {
	predicted, actual float64
	measured          bool
}

// layerStats accumulates per-layer work counts and busy times over a
// replay. The times are wall seconds of the calls the spans cover.
type layerStats struct {
	simWall   float64
	simEvents int
	simProcs  int
	byRanks   map[int][2]float64 // nranks -> {wall seconds, events}

	appWall             float64
	appEvents           int
	mallocs, allocBytes uint64

	traceEvents int
	sigRatios   []float64

	buildWall        float64
	buildTraceEvents int

	skelWall   float64
	skelEvents int
}

// replayer runs groups stage by stage through the layers' public
// functions, with a span around every call when tr is non-nil.
type replayer struct {
	tr    *tracer
	stats layerStats
	out   map[string]outcome
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, out: map[string]outcome{}, stats: layerStats{byRanks: map[int][2]float64{}}}
}

// replay runs every group in order under one root span and returns the
// root span's index and wall seconds.
func (r *replayer) replay(groups []group) (int, float64, error) {
	start := time.Now()
	root := r.tr.begin(-1, "bench.replay", "")
	for _, g := range groups {
		if err := r.group(root, g); err != nil {
			return root, 0, err
		}
	}
	r.tr.end(root)
	return root, time.Since(start).Seconds(), nil
}

// call runs fn inside a span.
func (r *replayer) call(parent int, name, id string, fn func() error) error {
	s := r.tr.begin(parent, name, id)
	err := fn()
	r.tr.end(s)
	return err
}

// simulate runs one world on a fresh cluster — the application when prog
// is nil, the skeleton otherwise — recording its trace like the campaign
// engine does, and returns the virtual run time.
func (r *replayer) simulate(parent int, g group, sc cluster.Scenario, prog *skeleton.Program) (float64, *trace.Trace, error) {
	var cl *cluster.Cluster
	r.call(parent, "mpi.cluster.Build", g.id, func() error {
		cl = cluster.Build(cluster.Testbed(g.nranks), sc)
		return nil
	})
	rec := trace.NewRecorder(g.nranks)
	var before runtime.MemStats
	if r.tr != nil && prog == nil {
		runtime.ReadMemStats(&before)
	}
	var dur float64
	t0 := time.Now()
	var err error
	if prog == nil {
		err = r.call(parent, "mpi.RunContext", g.id, func() (err error) {
			dur, err = mpi.RunContext(context.Background(), cl, g.nranks, mpi.Config{}, rec, g.fn)
			return err
		})
	} else {
		err = r.call(parent, "skeleton.RunContext", g.id, func() (err error) {
			dur, err = skeleton.RunContext(context.Background(), prog, cl, mpi.Config{}, rec)
			return err
		})
	}
	wall := time.Since(t0).Seconds()
	if err != nil {
		return 0, nil, fmt.Errorf("%s under %s: %w", g.id, sc.Name, err)
	}
	st := cl.Engine.Stats()
	s := &r.stats
	s.simWall += wall
	s.simEvents += st.Events
	s.simProcs += st.Procs
	br := s.byRanks[g.nranks]
	s.byRanks[g.nranks] = [2]float64{br[0] + wall, br[1] + float64(st.Events)}
	if prog == nil {
		s.appWall += wall
		s.appEvents += st.Events
		if r.tr != nil {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			s.mallocs += after.Mallocs - before.Mallocs
			s.allocBytes += after.TotalAlloc - before.TotalAlloc
		}
	} else {
		s.skelWall += wall
		s.skelEvents += st.Events
	}
	var tr *trace.Trace
	r.call(parent, "trace.Finish", g.id, func() error {
		tr = rec.Finish(dur)
		_ = tr.Stats()
		return nil
	})
	return dur, tr, nil
}

func (r *replayer) group(root int, g group) error {
	gs := r.tr.begin(root, "bench.group", g.id+"/p"+strconv.Itoa(g.nranks))
	defer r.tr.end(gs)
	appDed, tr, err := r.simulate(gs, g, cluster.Dedicated(), nil)
	if err != nil {
		return err
	}
	nev := 0
	for _, evs := range tr.Events {
		nev += len(evs)
	}
	if g.static == nil {
		r.stats.traceEvents += nev
	}
	ks := map[int]bool{}
	for _, c := range g.cells {
		ks[c.k] = true
	}
	order := make([]int, 0, len(ks))
	for k := range ks {
		order = append(order, k)
	}
	sort.Ints(order)
	opts := skeleton.Options{Mode: g.mode}
	for _, k := range order {
		var prog *skeleton.Program
		t0 := time.Now()
		if g.static == nil {
			err = r.call(gs, "skeleton.BuildFromTrace", g.id, func() error {
				p, sig, err := skeleton.BuildFromTrace(tr, k, opts)
				if err == nil {
					prog = p
					r.stats.sigRatios = append(r.stats.sigRatios, sig.Ratio)
				}
				return err
			})
			r.stats.buildTraceEvents += nev
		} else {
			err = r.call(gs, "skeleton.BuildOpts", g.id, func() error {
				p, err := skeleton.BuildOpts(g.static, k, opts)
				if err == nil {
					err = p.Consistent()
				}
				prog = p
				return err
			})
		}
		if err != nil {
			return fmt.Errorf("build %s K=%d: %w", g.id, k, err)
		}
		if g.static == nil {
			r.stats.buildWall += time.Since(t0).Seconds()
		}
		skelDed, _, err := r.simulate(gs, g, cluster.Dedicated(), prog)
		if err != nil {
			return err
		}
		for _, c := range g.cells {
			if c.k != k {
				continue
			}
			skelScen, _, err := r.simulate(gs, g, c.sc, prog)
			if err != nil {
				return err
			}
			var o outcome
			r.call(gs, "predict.Predict", c.id, func() error {
				o.predicted = predict.Predict(skelScen, predict.Ratio(appDed, skelDed))
				return nil
			})
			if c.measure {
				if o.actual, _, err = r.simulate(gs, g, c.sc, nil); err != nil {
					return err
				}
				o.measured = true
			}
			r.out[c.id] = o
		}
	}
	return nil
}

// layerMetrics turns a traced replay into per-layer metrics. root is the
// replay's root span, wall its wall time and untraced the same replay's
// wall time with tracing off.
func (r *replayer) layerMetrics(run *run, root int, wall, untraced float64) {
	s := r.stats
	perEvent := func(sec float64, ev int) float64 {
		if ev == 0 {
			return 0
		}
		return sec * 1e9 / float64(ev)
	}
	run.set("sim.ns_per_event", perEvent(s.simWall, s.simEvents), "ns", s.simEvents)
	for _, p := range []int{16, 32, 64} {
		br := s.byRanks[p]
		run.set("sim.ns_per_event.p"+strconv.Itoa(p), perEvent(br[0], int(br[1])), "ns", int(br[1]))
	}
	run.set("sim.events", float64(s.simEvents), "count", 1)
	run.set("sim.procs", float64(s.simProcs), "count", 1)
	run.set("mpi.app_run_s", s.appWall, "s", 1)
	if s.appEvents > 0 {
		run.set("mpi.allocs_per_event", float64(s.mallocs)/float64(s.appEvents), "count", s.appEvents)
		run.set("mpi.alloc_bytes_per_event", float64(s.allocBytes)/float64(s.appEvents), "B", s.appEvents)
	}
	run.set("trace.events", float64(s.traceEvents), "count", 1)
	run.set("signature.ratio_median", median(s.sigRatios), "ratio", len(s.sigRatios))
	run.set("skeleton.build_s", r.tr.total("skeleton.BuildFromTrace")+r.tr.total("skeleton.BuildOpts"), "s", 1)
	run.set("skeleton.build_ns_per_trace_event", perEvent(s.buildWall, s.buildTraceEvents), "ns", s.buildTraceEvents)
	run.set("skeleton.run_s", s.skelWall, "s", 1)
	run.set("skeleton.events", float64(s.skelEvents), "count", 1)

	self := r.tr.selfTimes(root)
	layers := 0.0
	for l, v := range self {
		if l != "bench" {
			layers += v
		}
	}
	run.set("bench.accounted_pct", 100*layers/wall, "%", 1)
	run.set("bench.trace_overhead_pct", 100*(wall-untraced)/untraced, "%", 1)
	run.info["layer_self_s"] = self
	run.info["replay_wall_s"] = map[string]float64{"traced": wall, "untraced": untraced}
}

// checkReplay compares every replayed prediction with the workload's own
// value for the same cell, bit for bit: the traced replay must measure
// the same computation the workload performed.
func checkReplay(t *tally, got map[string]outcome, want map[string]float64) {
	ids := make([]string, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		o, ok := got[id]
		switch {
		case !ok:
			t.fail("replay: cell %s not replayed", id)
		case o.predicted != want[id]:
			t.fail("replay: cell %s predicted %v, workload %v", id, o.predicted, want[id])
		default:
			t.ok()
		}
	}
}

// tracedRun is the shared tail of every workload's -trace 1 run: an
// untraced replay (the overhead baseline), a replay traced into tr, the
// bit-for-bit check against the workload's own predictions, and all of
// tr's spans written to .bench_build/spans.
func tracedRun(o options, run *run, tr *tracer, groups []group, want map[string]float64) error {
	_, untraced, err := newReplayer(nil).replay(groups)
	if err != nil {
		return err
	}
	rp := newReplayer(tr)
	root, wall, err := rp.replay(groups)
	if err != nil {
		return err
	}
	checkReplay(&run.tally, rp.out, want)
	rp.layerMetrics(run, root, wall, untraced)
	return tr.write(".bench_build/spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
}
