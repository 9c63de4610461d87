package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// orderEntry is one step of a completion batch as the engine runs it: a
// task finish, a proc wake, or a callback (with the id of the task that
// carried it).
type orderEntry struct {
	t    float64
	kind byte // 'f' finish, 'w' wake, 'c' callback
	id   int64
}

// orderProbe records task finishes and proc wakes in the order the
// engine reports them; every other probe hook is a no-op.
type orderProbe struct{ log *[]orderEntry }

func (orderProbe) ProcSpawn(int, string, bool)                       {}
func (orderProbe) ProcBlock(float64, int, string)                    {}
func (orderProbe) ProcDone(float64, int)                             {}
func (orderProbe) TaskStart(float64, int64, string, string, float64) {}
func (orderProbe) CPULoad(float64, string, int)                      {}
func (orderProbe) LinkRate(float64, string, int, float64)            {}
func (o orderProbe) ProcWake(t float64, id int) {
	*o.log = append(*o.log, orderEntry{t, 'w', int64(id)})
}
func (o orderProbe) TaskFinish(t float64, id int64, _, _ string) {
	*o.log = append(*o.log, orderEntry{t, 'f', id})
}

// completionMix runs a workload that mixes every kind of task so that
// completions coincide: timers from After, Sleep and Compute(0), compute
// tasks and flows, with equal deadlines among timers and timers within
// the 1e-12 completion slack of a compute or flow finish. Callbacks log
// the id of the task that carried them. With a non-nil probe the log
// also holds every finish and wake.
func completionMix(withProbe bool) []orderEntry {
	var log []orderEntry
	e := New()
	if withProbe {
		e.SetProbe(orderProbe{&log})
	}
	n0 := e.NewCPU("n0", 1, 1)
	n1 := e.NewCPU("n1", 2, 1)
	link := e.NewResource("link", 1e6)
	path := []*Resource{link}
	// after arms a timer whose callback logs its own task id.
	after := func(d float64) {
		var id int64
		e.After(d, func() { log = append(log, orderEntry{e.now, 'c', id}) })
		id = e.taskSeq
	}
	compute := func(cpu *CPU, work float64) {
		var id int64
		e.StartCompute(cpu, work, func() { log = append(log, orderEntry{e.now, 'c', id}) })
		id = e.taskSeq
	}
	flow := func(bytes float64) {
		var id int64
		e.StartFlow(path, bytes, func() { log = append(log, orderEntry{e.now, 'c', id}) })
		id = e.taskSeq
	}
	e.Spawn("a", false, func(p *Proc) {
		// All of these complete in the batch at t=1. The first timer's
		// deadline lies inside the completion slack, past the others,
		// so the heap pops it last although it was created first.
		after(1 + 5e-13)
		after(1)
		compute(n0, 1)
		flow(1e6)
		after(1)
		p.Sleep(1)
		// At t=1: zero-delay timers created around a blocking
		// Compute(0), all due at once.
		after(0)
		p.Compute(n1, 0)
		after(0)
		// Quantized sleeps and callbacks on a shared grid, while
		// computes and flows keep finishing around them.
		for it := 0; it < 40; it++ {
			after(0.25 * float64(1+it%3))
			flow(0.25e6 * float64(1+it%2))
			p.Sleep(0.25 * float64(1+it%2))
			compute(n1, 0.25)
			p.Compute(n1, 0)
		}
	})
	e.Spawn("b", false, func(p *Proc) {
		p.Compute(n1, 1) // finishes at t=1 with the batch above
		for it := 0; it < 40; it++ {
			after(0.25)
			p.Compute(n0, 0.25*float64(1+it%2))
			p.Sleep(0.25)
			p.Compute(n1, 0)
		}
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	return log
}

// TestCompletionOrderWithTimerHeap pins the order the timer heap's merge
// produces: at every virtual instant, tasks finish in creation (id)
// order whatever their kind, each wake and callback runs right after its
// own task's finish, and an unprobed run runs the callbacks in the same
// order as a probed one.
func TestCompletionOrderWithTimerHeap(t *testing.T) {
	log := completionMix(true)
	var prev orderEntry
	finishes, atOne := 0, 0
	for i, en := range log {
		switch en.kind {
		case 'f':
			finishes++
			if en.t == 1 {
				atOne++
			}
			if prev.kind == 'f' && prev.t == en.t && prev.id >= en.id {
				t.Fatalf("entry %d: task %d finished after task %d at t=%v", i, en.id, prev.id, en.t)
			}
			prev = en
		case 'c':
			if i == 0 || log[i-1].kind != 'f' || log[i-1].id != en.id {
				t.Fatalf("entry %d: callback of task %d does not follow its finish: %+v", i, en.id, log[max(i-1, 0)])
			}
		case 'w':
			if en.t > 0 && (i == 0 || log[i-1].kind != 'f') {
				t.Fatalf("entry %d: wake of proc %d does not follow a finish", i, en.id)
			}
		}
	}
	// The constructed batch at t=1: five tasks of proc a, its sleep and
	// proc b's compute.
	if atOne < 7 {
		t.Fatalf("only %d finishes at t=1, want the 7-task batch", atOne)
	}
	if finishes < 200 {
		t.Fatalf("only %d finishes, the mix did not run", finishes)
	}
	var probed []orderEntry
	for _, en := range log {
		if en.kind == 'c' {
			probed = append(probed, en)
		}
	}
	if plain := completionMix(false); !slices.Equal(plain, probed) {
		t.Fatalf("unprobed callback order differs from probed:\n%v\n%v", plain, probed)
	}
}

// checkGoroutines fails the test if more goroutines are alive than at
// base. A proc coroutine's goroutine is gone by the time its stop
// returns, so Run leaves none behind and no waiting is needed.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines, baseline %d: a proc coroutine leaked", n, base)
	}
}

// spawnBystanders adds procs in every state a failed run must unwind:
// one parked on an event that never fires, one still sleeping, and a
// daemon that loops forever. None of them wakes before t=5.
func spawnBystanders(e *Engine) {
	never := e.NewEvent()
	e.Spawn("waiter", false, func(p *Proc) { p.WaitEvent(never, "never") })
	e.Spawn("late", false, func(p *Proc) { p.Sleep(100) })
	e.Spawn("daemon", true, func(p *Proc) {
		for {
			p.Sleep(5)
		}
	})
}

// TestEventLoopPanicIsRunError: a completion callback that panics ends
// the run with an error naming the event loop at the callback's virtual
// time, not the proc whose coroutine was driving the loop, and every
// proc coroutine exits. The loop is driven by a proc blocked in Sleep in
// one case and by a proc whose body has just returned in the other.
func TestEventLoopPanicIsRunError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spawn func(e *Engine)
	}{
		{"blocked proc drives", func(e *Engine) {
			e.Spawn("stepper", false, func(p *Proc) {
				e.After(1, func() { panic("bad callback") })
				p.Sleep(2)
			})
			spawnBystanders(e)
		}},
		{"exiting proc drives", func(e *Engine) {
			// The bystanders block first (they have the lower ids), so
			// when stepper returns nothing is ready and its coroutine
			// advances the clock on its way out.
			spawnBystanders(e)
			e.Spawn("stepper", false, func(p *Proc) {
				e.After(1, func() { panic("bad callback") })
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := New()
			tc.spawn(e)
			err := e.Run()
			if err == nil {
				t.Fatal("Run returned nil after a callback panicked")
			}
			msg := err.Error()
			if msg != "sim: event loop panicked at t=1.000000: bad callback" {
				t.Fatalf("Run error = %q, want the event-loop panic at t=1", msg)
			}
			if strings.Contains(msg, "stepper") || strings.Contains(msg, "proc") {
				t.Fatalf("Run error %q blames a proc", msg)
			}
			checkGoroutines(t, base)
		})
	}
}

// TestCancelMidRunUnwindsProcs: a context canceled mid-run, here by a
// completion callback at a virtual instant well inside the run, stops
// the engine with an error wrapping context.Canceled, and every proc
// coroutine — running, parked, sleeping, ready or daemon — exits.
func TestCancelMidRunUnwindsProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.SetContext(ctx)
	cpu := e.NewCPU("n0", 2, 1)
	spawnBystanders(e)
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("worker%d", i), false, func(p *Proc) {
			for it := 0; it < 1_000_000; it++ {
				p.Compute(cpu, 1e-3)
				p.Sleep(1e-3)
			}
		})
	}
	e.After(0.5, cancel)
	err := e.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if now := e.Now(); now < 0.5 || now > 1 {
		t.Fatalf("run stopped at t=%v, want shortly after the cancel at t=0.5", now)
	}
	checkGoroutines(t, base)
}

// TestRunExitLeavesNoCoroutine: every way a run can end returns the
// expected error and stops every proc coroutine, whether the proc
// finished, is parked, sleeping, ready, or never ran.
func TestRunExitLeavesNoCoroutine(t *testing.T) {
	// worker computes and sleeps in a loop far longer than any row runs.
	worker := func(cpu *CPU) func(p *Proc) {
		return func(p *Proc) {
			for it := 0; it < 1_000_000; it++ {
				p.Compute(cpu, 1e-3)
				p.Sleep(1e-3)
			}
		}
	}
	for _, tc := range []struct {
		name string
		// setup builds the run; a non-nil check replaces the exact
		// comparison of the error text with want.
		setup func(e *Engine, cpu *CPU)
		want  string
		check func(err error) bool
	}{
		{name: "normal finish", setup: func(e *Engine, cpu *CPU) {
			for i := 0; i < 3; i++ {
				e.Spawn(fmt.Sprintf("w%d", i), false, func(p *Proc) {
					for it := 0; it < 10; it++ {
						p.Compute(cpu, 1e-3)
						p.Sleep(1e-3)
					}
				})
			}
		}},
		{name: "daemon still parked", setup: func(e *Engine, cpu *CPU) {
			e.Spawn("main", false, func(p *Proc) { p.Sleep(1) })
			e.Spawn("daemon", true, func(p *Proc) {
				for {
					p.Compute(cpu, 0.3)
				}
			})
		}},
		{name: "deadlock", setup: func(e *Engine, cpu *CPU) {
			never := e.NewEvent()
			e.Spawn("stuck", false, func(p *Proc) { p.WaitEvent(never, "never") })
			e.Spawn("done", false, func(p *Proc) { p.Sleep(1) })
		}, want: "sim: deadlock at t=1.000000, blocked: [stuck: never]"},
		{name: "MaxVirtualTime", setup: func(e *Engine, cpu *CPU) {
			e.MaxVirtualTime = 2.5
			e.Spawn("forever", false, func(p *Proc) {
				for {
					p.Sleep(1)
				}
			})
			spawnBystanders(e)
		}, want: "sim: virtual time 3.000 exceeded limit 2.500"},
		{name: "cancel before the first proc", setup: func(e *Engine, cpu *CPU) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			e.SetContext(ctx)
			spawnBystanders(e)
			for i := 0; i < 4; i++ {
				e.Spawn(fmt.Sprintf("worker%d", i), false, worker(cpu))
			}
		}, check: func(err error) bool { return errors.Is(err, context.Canceled) }},
		{name: "cancel mid-run", setup: func(e *Engine, cpu *CPU) {
			ctx, cancel := context.WithCancel(context.Background())
			e.SetContext(ctx)
			spawnBystanders(e)
			for i := 0; i < 4; i++ {
				e.Spawn(fmt.Sprintf("worker%d", i), false, worker(cpu))
			}
			e.After(0.5, cancel)
		}, check: func(err error) bool { return errors.Is(err, context.Canceled) }},
		{name: "proc panic", setup: func(e *Engine, cpu *CPU) {
			spawnBystanders(e)
			e.Spawn("bad", false, func(p *Proc) { panic("boom") })
			// Next in line when bad panics at t=0, so it never runs.
			e.Spawn("unstarted", false, func(p *Proc) { t.Error("unstarted proc ran") })
		}, want: `sim: proc "bad" panicked: boom`},
		{name: "event-loop panic", setup: func(e *Engine, cpu *CPU) {
			spawnBystanders(e)
			e.Spawn("stepper", false, func(p *Proc) {
				e.After(1, func() { panic("bad callback") })
				p.Sleep(2)
			})
		}, want: "sim: event loop panicked at t=1.000000: bad callback"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := New()
			tc.setup(e, e.NewCPU("n0", 2, 1))
			err := e.Run()
			switch {
			case tc.check != nil:
				if !tc.check(err) {
					t.Fatalf("Run error = %v", err)
				}
			case tc.want == "":
				if err != nil {
					t.Fatalf("Run error = %v, want nil", err)
				}
			case err == nil || err.Error() != tc.want:
				t.Fatalf("Run error = %v, want %q", err, tc.want)
			}
			checkGoroutines(t, base)
		})
	}
}

// TestSpawnWithoutRunStartsNothing: procs get their coroutines from Run,
// so an engine that is set up and then abandoned before Run — as
// mpi.Launch does when it rejects its arguments after cluster.Build
// spawned the contenders — leaves nothing running.
func TestSpawnWithoutRunStartsNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	spawnBystanders(e)
	e.Spawn("worker", false, func(p *Proc) { t.Error("a proc ran without Run") })
	checkGoroutines(t, base)
}
