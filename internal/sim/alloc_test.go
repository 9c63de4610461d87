package sim

import (
	"fmt"
	"testing"

	"perfskel/internal/telemetry"
)

// steadyAllocRun drives iters iterations of the steady-state shapes the
// pooled event loop must recycle: compute slices under processor sharing,
// sleeps, and fire-and-forget flows over a shared two-hop path. All
// caller-side storage (the path slice, the completion callback) is hoisted
// out of the loop, so every allocation inside the loop is the engine's.
func steadyAllocRun(iters int, probe telemetry.SimProbe) int {
	e := New()
	if probe != nil {
		e.SetProbe(probe)
	}
	cpu := e.NewCPU("n0", 2, 1)
	up := e.NewResource("up0", 125e6)
	down := e.NewResource("down0", 125e6)
	path := []*Resource{up, down}
	noop := func() {}
	for p := 0; p < 2; p++ {
		e.Spawn("p", false, func(pr *Proc) {
			// 1KB payloads drain well inside one 150us iteration, so the
			// flow population (and with it the task pool) stays bounded:
			// the loop reaches a true steady state instead of a growing
			// backlog that would force fresh task allocations.
			for it := 0; it < iters; it++ {
				pr.Compute(cpu, 100e-6)
				e.StartFlow(path, 1e3, noop)
				pr.Sleep(50e-6)
			}
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return e.Stats().Events
}

// steadyComponentsRun is the multi-component counterpart of
// steadyAllocRun: four procs each stream flows over a private two-hop
// path, so the flow graph splits into four disjoint components, and
// every other iteration each proc also sends over one link all of them
// share, which merges the components until those flows drain. The
// per-component refilling walk, its sort and its scratch lists must
// recycle their storage like the rest of the loop.
func steadyComponentsRun(iters int, probe telemetry.SimProbe) int {
	const procs = 4
	e := New()
	if probe != nil {
		e.SetProbe(probe)
	}
	shared := e.NewResource("core", 500e6)
	own := make([][]*Resource, procs)
	merged := make([][]*Resource, procs)
	cpus := make([]*CPU, procs)
	for i := range own {
		up := e.NewResource(fmt.Sprintf("up%d", i), 125e6)
		down := e.NewResource(fmt.Sprintf("down%d", i), 125e6)
		own[i] = []*Resource{up, down}
		merged[i] = []*Resource{up, shared}
		cpus[i] = e.NewCPU(fmt.Sprintf("n%d", i), 1, 1)
	}
	noop := func() {}
	for p := 0; p < procs; p++ {
		e.Spawn("p", false, func(pr *Proc) {
			for it := 0; it < iters; it++ {
				pr.Compute(cpus[p], 100e-6)
				e.StartFlow(own[p], 1e3, noop)
				if it%2 == 0 {
					e.StartFlow(merged[p], 2e3, noop)
				}
				pr.Sleep(50e-6)
			}
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return e.Stats().Events
}

// steadyTimersRun is the timer-heavy counterpart: sixteen procs sleep
// quantized delays, so many deadlines coincide, and after each sleep arm
// an After callback on a deadline every proc waking at the same instant
// shares, then block in a Compute(0). Most events complete batches of
// timers popped from the heap and merged by id; the heap and the merge
// must reuse their backing arrays.
func steadyTimersRun(iters int, probe telemetry.SimProbe) int {
	const procs = 16
	e := New()
	if probe != nil {
		e.SetProbe(probe)
	}
	cpu := e.NewCPU("n0", 4, 1)
	fired := 0
	tick := func() { fired++ }
	for p := 0; p < procs; p++ {
		e.Spawn("p", false, func(pr *Proc) {
			for it := 0; it < iters; it++ {
				pr.Sleep(50e-6 * float64(1+(p+it)%4))
				e.After(100e-6, tick)
				pr.Compute(cpu, 0)
				if it%4 == 0 {
					pr.Compute(cpu, 20e-6)
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return e.Stats().Events
}

// marginalAllocs returns the average allocations attributable to the
// extra events between a short and a long run of the same workload. The
// subtraction cancels all setup cost (engine, procs, goroutines, pool and
// scratch warm-up), leaving the per-event steady-state figure.
func marginalAllocs(t *testing.T, run func(int, telemetry.SimProbe) int, probe func() telemetry.SimProbe) float64 {
	t.Helper()
	const short, long, runs = 200, 600, 5
	var events [2]int
	allocShort := testing.AllocsPerRun(runs, func() {
		var p telemetry.SimProbe
		if probe != nil {
			p = probe()
		}
		events[0] = run(short, p)
	})
	allocLong := testing.AllocsPerRun(runs, func() {
		var p telemetry.SimProbe
		if probe != nil {
			p = probe()
		}
		events[1] = run(long, p)
	})
	dEvents := events[1] - events[0]
	if dEvents <= 0 {
		t.Fatalf("event delta not positive: %v", events)
	}
	return (allocLong - allocShort) / float64(dEvents)
}

// TestSteadyStateAllocFreeProbeOff pins the tentpole's zero-allocation
// guarantee: with no probe attached, the steady-state event loop reuses
// pooled tasks and engine-owned scratch buffers, so the marginal heap
// allocation per simulation event is zero. The small tolerance absorbs
// runtime-internal noise (sudog cache refills, timer machinery), not
// engine allocations — one real per-event allocation would show up as
// a full 1.0. The single-path workload, the multi-component one and the
// timer-heavy one must all hold it.
func TestSteadyStateAllocFreeProbeOff(t *testing.T) {
	for _, w := range []struct {
		name string
		run  func(int, telemetry.SimProbe) int
	}{
		{"shared path", steadyAllocRun},
		{"components", steadyComponentsRun},
		{"timers", steadyTimersRun},
	} {
		perEvent := marginalAllocs(t, w.run, nil)
		if perEvent > 0.05 {
			t.Fatalf("%s: probe-off steady state allocates %.3f allocs/event, want 0", w.name, perEvent)
		}
	}
}

// TestSteadyStateAllocBudgetProbeOn documents the probed path's budget:
// telemetry must retain per-event records (block spans, utilisation
// samples, registry updates), whose amortized chunked appends cost well
// under two allocations per event. A regression past the budget means a
// new allocation crept into the collector hot path.
func TestSteadyStateAllocBudgetProbeOn(t *testing.T) {
	perEvent := marginalAllocs(t, steadyAllocRun, func() telemetry.SimProbe { return telemetry.NewCollector() })
	if perEvent > 2.0 {
		t.Fatalf("probe-on steady state allocates %.3f allocs/event, want <= 2", perEvent)
	}
}
