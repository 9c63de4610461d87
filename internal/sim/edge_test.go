package sim

import (
	"math"
	"strings"
	"testing"
)

func TestSpawnAfterRunPanics(t *testing.T) {
	e := New()
	e.Spawn("p", false, func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Spawn after Run did not panic")
		}
	}()
	e.Spawn("late", false, func(p *Proc) {})
}

func TestRunTwicePanics(t *testing.T) {
	e := New()
	e.Spawn("p", false, func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	_ = e.Run()
}

func TestInvalidResourceConfigPanics(t *testing.T) {
	e := New()
	for _, f := range []func(){
		func() { e.NewCPU("bad", 0, 1) },
		func() { e.NewCPU("bad", 1, 0) },
		func() { e.NewResource("bad", 0) },
		func() { e.NewResource("bad", -5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid config did not panic")
				}
			}()
			f()
		}()
	}
}

func TestEventFireIdempotent(t *testing.T) {
	e := New()
	ev := e.NewEvent()
	woken := 0
	e.Spawn("w", false, func(p *Proc) {
		p.WaitEvent(ev, "once")
		woken++
	})
	e.Spawn("f", false, func(p *Proc) {
		p.Sleep(0.1)
		ev.Fire()
		ev.Fire() // second fire must be harmless
		if !ev.Fired() {
			t.Error("event not marked fired")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 1 {
		t.Errorf("woken = %d", woken)
	}
}

func TestSetCapacityBeforeRun(t *testing.T) {
	e := New()
	r := e.NewResource("r", 100)
	r.SetCapacity(10)
	var end float64
	e.Spawn("p", false, func(p *Proc) {
		ev := e.NewEvent()
		e.StartFlow([]*Resource{r}, 100, ev.Fire)
		p.WaitEvent(ev, "flow")
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end < 9.99 || end > 10.01 {
		t.Errorf("flow took %v at reduced capacity, want ~10", end)
	}
	defer func() {
		if recover() == nil {
			t.Error("SetCapacity(0) did not panic")
		}
	}()
	r.SetCapacity(0)
}

func TestProcAccessors(t *testing.T) {
	e := New()
	p := e.Spawn("alice", true, func(p *Proc) {
		if p.Now() != p.Engine().Now() {
			t.Error("Now mismatch")
		}
	})
	if p.ID() != 0 || p.Name() != "alice" || p.Engine() != e {
		t.Errorf("accessors: id=%d name=%q", p.ID(), p.Name())
	}
	e.Spawn("done", false, func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockErrorMessage(t *testing.T) {
	e := New()
	ev := e.NewEvent()
	e.Spawn("stuck-one", false, func(p *Proc) { p.WaitEvent(ev, "reason-a") })
	e.Spawn("stuck-two", false, func(p *Proc) { p.WaitEvent(ev, "reason-b") })
	err := e.Run()
	if err == nil {
		t.Fatal("want deadlock")
	}
	msg := err.Error()
	for _, want := range []string{"deadlock", "stuck-one", "reason-a", "stuck-two", "reason-b"} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock message missing %q: %s", want, msg)
		}
	}
}

// TestNegativeDelayPanicsInsideProc also covers NaN: a NaN deadline has
// no place in the timer heap's order, so After and Sleep reject it.
func TestNegativeDelayPanicsInsideProc(t *testing.T) {
	for _, tc := range []struct {
		delay float64
		want  string
	}{
		{-1, "negative delay"},
		{math.NaN(), "NaN delay"},
	} {
		for _, sleep := range []bool{false, true} {
			e := New()
			e.Spawn("p", false, func(p *Proc) {
				if sleep {
					p.Sleep(tc.delay)
				} else {
					e.After(tc.delay, func() {})
				}
			})
			err := e.Run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("delay %v (sleep %v): err = %v, want %q panic propagated", tc.delay, sleep, err, tc.want)
			}
		}
	}
}

func TestManyProcsManyEvents(t *testing.T) {
	// Stress: 64 procs, thousands of interleaved tasks, exact completion.
	e := New()
	cpu := e.NewCPU("n", 8, 1.0)
	r := e.NewResource("r", 1e6)
	finished := 0
	for i := 0; i < 64; i++ {
		e.Spawn("p", false, func(p *Proc) {
			for j := 0; j < 50; j++ {
				p.Compute(cpu, 0.0001)
				ev := e.NewEvent()
				e.StartFlow([]*Resource{r}, 100, ev.Fire)
				p.WaitEvent(ev, "flow")
			}
			finished++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != 64 {
		t.Errorf("finished = %d", finished)
	}
}

func TestEngineStats(t *testing.T) {
	e := New()
	cpu := e.NewCPU("n", 1, 1)
	e.Spawn("p", false, func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Compute(cpu, 0.1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Events < 5 || st.Procs != 1 || st.Now < 0.5-1e-9 {
		t.Errorf("stats = %+v", st)
	}
}
