package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestMaxMinFairnessProperties checks the fluid network model's
// invariants on randomly generated flow/resource configurations:
//
//  1. every active flow gets a positive rate;
//  2. no resource's capacity is exceeded;
//  3. every flow is bottlenecked: some resource on its path is saturated
//     (the defining property of a max-min fair allocation);
//  4. flows with identical paths receive equal rates.
func TestMaxMinFairnessProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		e := New()
		nres := 1 + rng.Intn(6)
		resources := make([]*Resource, nres)
		for i := range resources {
			resources[i] = e.NewResource(fmt.Sprintf("r%d", i), 1+rng.Float64()*1000)
		}
		nflows := 1 + rng.Intn(12)
		type flowInfo struct {
			task *task
			key  string
		}
		var flows []flowInfo
		for f := 0; f < nflows; f++ {
			var path []*Resource
			key := ""
			for i, r := range resources {
				if rng.Intn(2) == 0 {
					path = append(path, r)
					key += fmt.Sprintf("%d,", i)
				}
			}
			if len(path) == 0 {
				i := rng.Intn(nres)
				path = append(path, resources[i])
				key = fmt.Sprintf("%d,", i)
			}
			tk := &task{kind: taskFlow, path: path, remaining: 1000}
			e.addTask(tk)
			flows = append(flows, flowInfo{task: tk, key: key})
		}
		e.computeRates()

		use := make(map[*Resource]float64)
		for _, f := range flows {
			if f.task.rate <= 0 {
				t.Fatalf("trial %d: flow has non-positive rate %v", trial, f.task.rate)
			}
			for _, r := range f.task.path {
				use[r] += f.task.rate
			}
		}
		for r, u := range use {
			if u > r.capacity*(1+1e-9) {
				t.Fatalf("trial %d: resource %s overcommitted: %v > %v", trial, r.name, u, r.capacity)
			}
		}
		for _, f := range flows {
			saturated := false
			for _, r := range f.task.path {
				if use[r] >= r.capacity*(1-1e-9) {
					saturated = true
					break
				}
			}
			if !saturated {
				t.Fatalf("trial %d: flow not bottlenecked by any resource (rate %v)", trial, f.task.rate)
			}
		}
		byKey := make(map[string]float64)
		for _, f := range flows {
			if prev, ok := byKey[f.key]; ok {
				if diff := prev - f.task.rate; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("trial %d: identical-path flows got rates %v and %v", trial, prev, f.task.rate)
				}
			} else {
				byKey[f.key] = f.task.rate
			}
		}
	}
}

// TestIncrementalFillingMatchesRebuild checks the per-component max-min
// refilling against a from-scratch rebuild. Two engines receive the same
// random sequence of flow starts, flow completions and capacity changes
// over random paths (some repeating a resource); the resources are drawn
// from a few groups, with occasional cross-group paths, so the flow graph
// holds both disjoint and merging components. After every step the first
// engine refills only what the step made dirty, as advance does, and the
// second rebuilds everything through computeRates. Every flow's rate and
// every resource's remCap and nflows must agree bit for bit.
func TestIncrementalFillingMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		inc, ref := New(), New()
		nres := 2 + rng.Intn(10)
		groups := 1 + rng.Intn(3)
		// Half the capacities come from a small set, so equal fair shares
		// and with them the first-touch tie-breaking are exercised.
		capacity := func() float64 {
			if rng.Intn(2) == 0 {
				return []float64{100, 250, 1000}[rng.Intn(3)]
			}
			return 1 + rng.Float64()*1000
		}
		for i := 0; i < nres; i++ {
			c := capacity()
			inc.NewResource(fmt.Sprintf("r%d", i), c)
			ref.NewResource(fmt.Sprintf("r%d", i), c)
		}
		var incFlows, refFlows []*task
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(incFlows) == 0:
				g := rng.Intn(groups)
				var idx []int
				for n := 1 + rng.Intn(3); len(idx) < n; {
					i := rng.Intn(nres)
					if i%groups == g || rng.Intn(10) == 0 {
						idx = append(idx, i)
					}
				}
				if rng.Intn(5) == 0 {
					idx = append(idx, idx[0]) // the path repeats a resource
				}
				var ip, rp []*Resource
				for _, i := range idx {
					ip = append(ip, inc.links[i])
					rp = append(rp, ref.links[i])
				}
				bytes := 1 + rng.Float64()*1e4
				inc.StartFlow(ip, bytes, nil)
				ref.StartFlow(rp, bytes, nil)
				incFlows = append(incFlows, inc.tasks[len(inc.tasks)-1])
				refFlows = append(refFlows, ref.tasks[len(ref.tasks)-1])
			case op < 8:
				k := rng.Intn(len(incFlows))
				inc.tasks = slices.DeleteFunc(inc.tasks, func(x *task) bool { return x == incFlows[k] })
				ref.tasks = slices.DeleteFunc(ref.tasks, func(x *task) bool { return x == refFlows[k] })
				inc.removeFlow(incFlows[k])
				incFlows = slices.Delete(incFlows, k, k+1)
				refFlows = slices.Delete(refFlows, k, k+1)
			default:
				i := rng.Intn(nres)
				c := capacity()
				inc.links[i].SetCapacity(c)
				ref.links[i].SetCapacity(c)
			}
			if len(inc.dirtyRes) > 0 {
				inc.computeFlowRates()
			}
			ref.computeRates()
			for k, f := range incFlows {
				if math.Float64bits(f.rate) != math.Float64bits(refFlows[k].rate) {
					t.Fatalf("trial %d step %d: flow %d rate %v, rebuild %v", trial, step, f.id, f.rate, refFlows[k].rate)
				}
			}
			for i, r := range inc.links {
				w := ref.links[i]
				if math.Float64bits(r.remCap) != math.Float64bits(w.remCap) || r.nflows != w.nflows {
					t.Fatalf("trial %d step %d: %s remCap=%v nflows=%d, rebuild remCap=%v nflows=%d",
						trial, step, r.name, r.remCap, r.nflows, w.remCap, w.nflows)
				}
			}
		}
	}
}

// TestProcessorSharingProperties checks the CPU model on random task
// mixes: rates are speed*min(1, ncpu/n) for every task on the node.
func TestProcessorSharingProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		e := New()
		ncpus := 1 + rng.Intn(4)
		speed := 0.5 + rng.Float64()*3
		cpu := e.NewCPU("n", ncpus, speed)
		n := 1 + rng.Intn(10)
		tasks := make([]*task, n)
		for i := range tasks {
			tasks[i] = &task{kind: taskCompute, cpu: cpu, remaining: 1}
			e.addTask(tasks[i])
		}
		e.computeRates()
		want := speed
		if n > ncpus {
			want = speed * float64(ncpus) / float64(n)
		}
		for i, tk := range tasks {
			if diff := tk.currentRate() - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("trial %d task %d: rate %v, want %v (ncpu=%d n=%d)", trial, i, tk.currentRate(), want, ncpus, n)
			}
		}
	}
}

// TestVirtualTimeMonotonicity: completion notifications never observe the
// clock moving backwards, under randomized mixes of computes, flows and
// timers.
func TestVirtualTimeMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		e := New()
		cpu := e.NewCPU("n", 2, 1)
		r := e.NewResource("r", 100)
		last := -1.0
		check := func() {
			if e.Now() < last {
				t.Fatalf("trial %d: time went backwards: %v after %v", trial, e.Now(), last)
			}
			last = e.Now()
		}
		for p := 0; p < 3; p++ {
			steps := 5 + rng.Intn(10)
			work := make([]float64, steps)
			bytes := make([]float64, steps)
			for i := range work {
				work[i] = rng.Float64() * 0.1
				bytes[i] = rng.Float64() * 50
			}
			e.Spawn(fmt.Sprintf("p%d", p), false, func(pr *Proc) {
				for i := 0; i < steps; i++ {
					pr.Compute(cpu, work[i])
					check()
					ev := e.NewEvent()
					e.StartFlow([]*Resource{r}, bytes[i], ev.Fire)
					pr.WaitEvent(ev, "flow")
					check()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
