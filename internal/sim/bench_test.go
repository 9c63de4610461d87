package sim

import (
	"fmt"
	"testing"

	"perfskel/internal/telemetry"
)

// runEventMix drives a CG/MG-shaped discrete-event workload through the
// engine: 8 virtual processes on 4 two-processor nodes (so processor
// sharing is exercised), each iterating compute slices with deterministic
// jitter, a ring payload exchange over shared up/down links (max-min
// filling with 8 concurrent flows), an event barrier per iteration (the
// collective-alignment shape of CG's allreduces), and a timer per
// exchange standing in for wire latency. It returns the engine's final
// stats; the event count is deterministic, so ns/event is well defined.
func runEventMix(iters int, probe telemetry.SimProbe) Stats {
	const (
		nodes = 4
		procs = 8
	)
	e := New()
	if probe != nil {
		e.SetProbe(probe)
	}
	cpus := make([]*CPU, nodes)
	up := make([]*Resource, nodes)
	down := make([]*Resource, nodes)
	for i := 0; i < nodes; i++ {
		cpus[i] = e.NewCPU(fmt.Sprintf("node%d", i), 2, 1)
		up[i] = e.NewResource(fmt.Sprintf("up%d", i), 125e6)
		down[i] = e.NewResource(fmt.Sprintf("down%d", i), 125e6)
	}
	// Event barrier in the style of the mpi layer's collectives: the last
	// arriving proc fires the round's event and re-arms the next round.
	barCount := 0
	barEv := e.NewEvent()
	barrier := func(p *Proc) {
		barCount++
		if barCount == procs {
			barCount = 0
			old := barEv
			barEv = e.NewEvent()
			old.Fire()
			return
		}
		p.WaitEvent(barEv, "barrier")
	}
	// inbox[i] is the event proc i waits on for its ring payload; owners
	// re-arm their slot each iteration before the barrier, so senders
	// always observe the current round's event.
	inbox := make([]*Event, procs)
	for i := range inbox {
		inbox[i] = e.NewEvent()
	}
	for i := 0; i < procs; i++ {
		i := i
		node := i % nodes
		dstNode := (i + 1) % procs % nodes
		path := []*Resource{up[node], down[dstNode]}
		if node == dstNode {
			path = []*Resource{up[node]} // same-node neighbours still flow
		}
		e.Spawn(fmt.Sprintf("rank%d", i), false, func(p *Proc) {
			for it := 0; it < iters; it++ {
				// Deterministic +/- jitter, CG-style.
				jit := 1 + 0.02*float64((i*31+it*17)%7-3)
				p.Compute(cpus[node], 0.0005*jit)
				barrier(p)
				bytes := 64e3 * jit
				dst := (i + 1) % procs
				ev := inbox[dst]
				p.Sleep(50e-6) // wire latency
				e.StartFlow(path, bytes, ev.Fire)
				p.WaitEvent(inbox[i], "ring recv")
				inbox[i] = e.NewEvent()
				barrier(p)
			}
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return e.Stats()
}

// benchMix reports ns per simulation event and events per run for the
// CG/MG-shaped mix. allocs/op counts the whole run, engine and proc
// setup included, so it is not a steady-state per-event figure:
// TestSteadyStateAllocFreeProbeOff measures that one.
func benchMix(b *testing.B, instrument bool) {
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		var probe telemetry.SimProbe
		if instrument {
			probe = telemetry.NewCollector()
		}
		st := runEventMix(200, probe)
		events += st.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkSimMixOff is the probe-off (nil sink) event loop: the path
// every uninstrumented simulation pays.
func BenchmarkSimMixOff(b *testing.B) { benchMix(b, false) }

// BenchmarkSimMixOn is the same mix with a full telemetry collector
// attached.
func BenchmarkSimMixOn(b *testing.B) { benchMix(b, true) }

// BenchmarkSimSteadyCompute measures the pure compute/sleep steady state
// with the probe off: the path the allocation-budget regression test
// pins at zero heap allocations per event.
func BenchmarkSimSteadyCompute(b *testing.B) {
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		e := New()
		cpu := e.NewCPU("n", 2, 1)
		for p := 0; p < 4; p++ {
			p := p
			e.Spawn(fmt.Sprintf("p%d", p), false, func(pr *Proc) {
				for it := 0; it < 500; it++ {
					pr.Compute(cpu, 0.001*float64(1+(p+it)%3))
					pr.Sleep(0.0005)
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		events += e.Stats().Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// runFlowScale drives the rank-scale flow regime: 64 single-processor
// nodes with one proc each. Every iteration computes, runs a permutation
// exchange (proc i sends to i XOR 2^k, so up to 64 independent two-hop
// flows are in flight at once, one link component each) and then a
// gather to proc 0 (63 flows sharing down0, one component spanning every
// uplink). The mix is what a from-scratch filling re-solves in full on
// every flow start or finish.
func runFlowScale(iters int) Stats {
	const procs = 64
	e := New()
	cpus := make([]*CPU, procs)
	up := make([]*Resource, procs)
	down := make([]*Resource, procs)
	for i := 0; i < procs; i++ {
		cpus[i] = e.NewCPU(fmt.Sprintf("node%d", i), 1, 1)
		up[i] = e.NewResource(fmt.Sprintf("up%d", i), 125e6)
		down[i] = e.NewResource(fmt.Sprintf("down%d", i), 125e6)
	}
	paths := make([][]*Resource, procs*procs)
	for s := 0; s < procs; s++ {
		for d := 0; d < procs; d++ {
			paths[s*procs+d] = []*Resource{up[s], down[d]}
		}
	}
	barCount := 0
	barEv := e.NewEvent()
	barrier := func(p *Proc) {
		barCount++
		if barCount == procs {
			barCount = 0
			old := barEv
			barEv = e.NewEvent()
			old.Fire()
			return
		}
		p.WaitEvent(barEv, "barrier")
	}
	inbox := make([]*Event, procs)
	for i := range inbox {
		inbox[i] = e.NewEvent()
	}
	gathered := 0
	gatherEv := e.NewEvent()
	arrive := func() {
		gathered++
		if gathered == procs-1 {
			gathered = 0
			gatherEv.Fire()
		}
	}
	for i := 0; i < procs; i++ {
		i := i
		e.Spawn(fmt.Sprintf("rank%d", i), false, func(p *Proc) {
			for it := 0; it < iters; it++ {
				jit := 1 + 0.02*float64((i*31+it*17)%7-3)
				p.Compute(cpus[i], 0.0005*jit)
				dst := i ^ (1 << (it % 6))
				p.Sleep(50e-6)
				e.StartFlow(paths[i*procs+dst], 64e3*jit, inbox[dst].Fire)
				p.WaitEvent(inbox[i], "exchange recv")
				inbox[i] = e.NewEvent()
				barrier(p)
				if i == 0 {
					p.WaitEvent(gatherEv, "gather")
					gatherEv = e.NewEvent()
				} else {
					p.Sleep(50e-6)
					e.StartFlow(paths[i*procs], 16e3*jit, arrive)
				}
				barrier(p)
			}
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return e.Stats()
}

// BenchmarkSimFlowScale reports ns per simulation event for the 64-node
// flow mix of runFlowScale, probe off.
func BenchmarkSimFlowScale(b *testing.B) {
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		events += runFlowScale(20).Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// runLatencyScale drives the shape the mpi layer gives every message at
// rank scale: procs single-processor nodes with one proc each, procs a
// power of two. Every iteration a proc computes, then sends to proc
// i XOR 2^k through a latency timer whose callback starts the flow (mpi's
// After(lat) + StartFlow), waits for its own inbound payload and meets
// the others at a barrier. Up to procs latency timers are pending at
// once next to the compute tasks and flows.
func runLatencyScale(procs, iters int) Stats {
	bits := 0
	for 1<<bits < procs {
		bits++
	}
	e := New()
	cpus := make([]*CPU, procs)
	up := make([]*Resource, procs)
	down := make([]*Resource, procs)
	for i := 0; i < procs; i++ {
		cpus[i] = e.NewCPU(fmt.Sprintf("node%d", i), 1, 1)
		up[i] = e.NewResource(fmt.Sprintf("up%d", i), 125e6)
		down[i] = e.NewResource(fmt.Sprintf("down%d", i), 125e6)
	}
	// paths[i*bits+k] is the route from proc i to its partner i^(1<<k).
	paths := make([][]*Resource, procs*bits)
	for i := 0; i < procs; i++ {
		for k := 0; k < bits; k++ {
			paths[i*bits+k] = []*Resource{up[i], down[i^(1<<k)]}
		}
	}
	barCount := 0
	barEv := e.NewEvent()
	barrier := func(p *Proc) {
		barCount++
		if barCount == procs {
			barCount = 0
			old := barEv
			barEv = e.NewEvent()
			old.Fire()
			return
		}
		p.WaitEvent(barEv, "barrier")
	}
	inbox := make([]*Event, procs)
	for i := range inbox {
		inbox[i] = e.NewEvent()
	}
	for i := 0; i < procs; i++ {
		// send is the latency timer's callback; the proc sets k and
		// bytes before arming it and changes them only after the
		// barrier, by which time the flow has started.
		var (
			bytes float64
			k     int
		)
		send := func() { e.StartFlow(paths[i*bits+k], bytes, inbox[i^(1<<k)].Fire) }
		e.Spawn(fmt.Sprintf("rank%d", i), false, func(p *Proc) {
			for it := 0; it < iters; it++ {
				jit := 1 + 0.02*float64((i*31+it*17)%7-3)
				p.Compute(cpus[i], 0.0005*jit)
				k = it % bits
				bytes = 64e3 * jit
				e.After(50e-6, send)
				p.WaitEvent(inbox[i], "recv")
				inbox[i] = e.NewEvent()
				barrier(p)
			}
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return e.Stats()
}

// benchLatencyScale reports ns per simulation event for the latency-plus-
// flow mix of runLatencyScale on procs procs, probe off.
func benchLatencyScale(b *testing.B, procs int) {
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		events += runLatencyScale(procs, 20).Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkSimLatencyScale is the 64-proc point of the latency mix.
func BenchmarkSimLatencyScale(b *testing.B) { benchLatencyScale(b, 64) }

// BenchmarkSimRankCurve is the latency mix's host cost per event over
// rank count, from 4 to 256 procs. A flat curve means the per-event cost
// does not grow with the number of procs, timers and flows in flight.
func BenchmarkSimRankCurve(b *testing.B) {
	for _, procs := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("p=%d", procs), func(b *testing.B) { benchLatencyScale(b, procs) })
	}
}
