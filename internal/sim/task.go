package sim

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"perfskel/internal/telemetry"
)

// CPU models the processors of one node under processor-sharing: with n
// runnable compute tasks on a node of ncpu processors each task progresses
// at rate speed*min(1, ncpu/n) work units per second. This is the fluid
// model of the round-robin timesharing the paper's Linux testbed exhibits.
type CPU struct {
	name    string
	ncpu    int
	speed   float64 // work units per second per processor
	active  int     // running compute tasks (maintained incrementally)
	rate    float64 // per-task rate for the current active count
	busy    float64 // virtual seconds with at least one runnable task
	busyIdx int     // position in Engine.busyCPUs while active > 0
	probed  int     // last runnable count reported to the probe
	probeID int     // dense id from ResourceProbe registration (-1 until registered)

	// textMemo caches formatted compute-block reasons by work amount:
	// probed programs compute the same quanta every iteration, and an
	// 8-byte float key hashes far cheaper than the full Reason struct.
	textMemo map[float64]string
}

// computeText returns the rendered block reason for computing work on c,
// memoized per distinct work amount.
func (c *CPU) computeText(work float64) string {
	if s, ok := c.textMemo[work]; ok {
		return s
	}
	s := computeReason(work, c.name).String()
	if c.textMemo == nil {
		c.textMemo = make(map[float64]string, 8)
	}
	if len(c.textMemo) < 1<<12 {
		c.textMemo[work] = s
	}
	return s
}

// NewCPU adds a node CPU group with ncpu processors of the given speed (in
// work units per second; 1.0 means one dedicated-second of work per second).
func (e *Engine) NewCPU(name string, ncpu int, speed float64) *CPU {
	if ncpu <= 0 || speed <= 0 {
		panic("sim: NewCPU requires positive ncpu and speed")
	}
	c := &CPU{name: name, ncpu: ncpu, speed: speed, probeID: -1}
	e.cpus = append(e.cpus, c)
	return c
}

// Name returns the CPU group's name.
func (c *CPU) Name() string { return c.name }

// addActive adjusts c's runnable compute-task count by d (+1 or -1) and
// refreshes the shared per-task rate. The expression is exactly the one
// the former per-event recomputation evaluated, on an active count that
// integer increments keep exact, so the incremental rate is bit-identical
// to a from-scratch one. A group that drains to zero keeps a stale rate,
// which is never read: no task is running on it.
//
// The 0<->1 transitions also maintain e.busyCPUs, the groups advance
// charges busy time to; removal swaps the last entry into the vacated
// slot.
func (e *Engine) addActive(c *CPU, d int) {
	was := c.active
	c.active += d
	switch {
	case c.active > 0:
		c.rate = c.speed * math.Min(1, float64(c.ncpu)/float64(c.active))
		if was == 0 {
			c.busyIdx = len(e.busyCPUs)
			e.busyCPUs = append(e.busyCPUs, c)
		}
	case was > 0:
		last := e.busyCPUs[len(e.busyCPUs)-1]
		e.busyCPUs[c.busyIdx] = last
		last.busyIdx = c.busyIdx
		e.busyCPUs[len(e.busyCPUs)-1] = nil
		e.busyCPUs = e.busyCPUs[:len(e.busyCPUs)-1]
	}
}

// Resource is a capacity-limited network resource (a NIC or link direction).
// Concurrent flows crossing it share its capacity max-min fairly.
type Resource struct {
	name     string
	eng      *Engine
	capacity float64 // bytes per second
	bytes    float64 // payload bytes carried, accumulated during advance

	// members lists the active flows crossing the resource in creation
	// order, once per occurrence on the flow's path. It is the
	// resource->flow half of the graph computeFlowRates walks.
	members []*task

	// scratch fields owned by the max-min computation, valid for every
	// resource since the last filling run that reached it. epoch stamps
	// that run's component walk.
	epoch   uint64
	remCap  float64
	unfixed int
	nflows  int // flows crossing the resource, counted per path occurrence

	// last utilisation reported to the probe
	probedRate  float64
	probedFlows int
	probeID     int // dense id from ResourceProbe registration (-1 until registered)

	// pairName interns two-hop path labels ("this+next") keyed by the
	// second hop, so probed flow starts don't rebuild the same string.
	pairName map[*Resource]string
}

// NewResource adds a network resource with the given capacity in bytes/s.
func (e *Engine) NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 {
		panic("sim: NewResource requires positive capacity")
	}
	r := &Resource{name: name, eng: e, capacity: capacity, remCap: capacity, probeID: -1}
	e.links = append(e.links, r)
	return r
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the resource's capacity in bytes per second.
func (r *Resource) Capacity() float64 { return r.capacity }

// SetCapacity changes the capacity, e.g. to model the paper's iproute2
// bandwidth limitation. It must be set before flows that should observe it
// are started; changing it mid-run affects rates from the next event on.
func (r *Resource) SetCapacity(c float64) {
	if c <= 0 {
		panic("sim: SetCapacity requires positive capacity")
	}
	r.capacity = c
	if r.eng != nil {
		r.eng.dirtyRes = append(r.eng.dirtyRes, r)
	}
}

type taskKind int

const (
	taskCompute taskKind = iota
	taskFlow
	taskTimer
)

// task is a unit of virtual-time-consuming activity. Tasks are pooled on
// the engine: completion returns them to the free list, so the steady
// state recycles a fixed working set instead of allocating per event.
type task struct {
	id        int64
	kind      taskKind
	cpu       *CPU        // compute
	path      []*Resource // flow
	where     string      // flow path name, cached at start (probed runs only)
	remaining float64     // work units (compute), bytes (flow)
	deadline  float64     // absolute time (timer)
	rate      float64     // current progress rate (flows; compute uses cpu.rate)
	due       float64     // seconds until completion, cached per advance
	onDone    func()      // runs in scheduler context at completion
	proc      *Proc       // woken at completion when onDone is nil
}

// currentRate returns the task's instantaneous progress rate.
func (t *task) currentRate() float64 {
	if t.kind == taskCompute {
		return t.cpu.rate
	}
	return t.rate
}

// newTask takes a task from the pool, or allocates when the pool is dry
// (only while the concurrent-task high-water mark is still growing).
func (e *Engine) newTask() *task {
	if n := len(e.taskPool); n > 0 {
		t := e.taskPool[n-1]
		e.taskPool[n-1] = nil
		e.taskPool = e.taskPool[:n-1]
		return t
	}
	return &task{}
}

// release zeroes a completed task and returns it to the pool.
func (e *Engine) release(t *task) {
	*t = task{}
	e.taskPool = append(e.taskPool, t)
}

// addTask numbers t and enters it into the active set: timers into the
// deadline heap, compute and flow tasks into e.tasks.
func (e *Engine) addTask(t *task) {
	e.taskSeq++
	t.id = e.taskSeq
	if t.kind == taskTimer {
		e.pushTimer(t)
		return
	}
	e.tasks = append(e.tasks, t)
}

// timerBefore orders the timer heap: earlier deadline first, creation
// order among equal deadlines.
func timerBefore(a, b *task) bool {
	return a.deadline < b.deadline || a.deadline == b.deadline && a.id < b.id
}

// pushTimer adds t to the timer heap, sifting it up from the end.
func (e *Engine) pushTimer(t *task) {
	h := append(e.timers, t)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !timerBefore(t, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = t
	e.timers = h
}

// popTimer removes and returns the heap's earliest timer, sifting the
// last entry down from the root. The backing array is kept, so the
// steady state allocates nothing.
func (e *Engine) popTimer() *task {
	h := e.timers
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && timerBefore(h[c+1], h[c]) {
				c++
			}
			if !timerBefore(h[c], last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	e.timers = h
	return top
}

// StartCompute begins a compute task of the given amount of work (in
// dedicated-processor seconds at speed 1.0) on cpu. onDone runs in
// scheduler context when the work completes. Most callers want
// Proc.Compute instead.
func (e *Engine) StartCompute(cpu *CPU, work float64, onDone func()) {
	if work <= 0 {
		e.After(0, onDone)
		return
	}
	t := e.newTask()
	t.kind = taskCompute
	t.cpu = cpu
	t.remaining = work
	t.onDone = onDone
	e.addTask(t)
	e.addActive(cpu, 1)
	if e.probe != nil {
		e.probe.TaskStart(e.now, t.id, telemetry.TaskCompute, cpu.name, work)
	}
}

// StartFlow begins a network transfer of bytes across the resources in
// path. The flow's rate at any instant is its max-min fair share, the
// minimum over the path. onDone runs in scheduler context when the last
// byte is delivered. Latency must be modelled separately (see After).
func (e *Engine) StartFlow(path []*Resource, bytes float64, onDone func()) {
	if len(path) == 0 {
		panic("sim: StartFlow with empty path")
	}
	if bytes <= 0 {
		e.After(0, onDone)
		return
	}
	t := e.newTask()
	t.kind = taskFlow
	t.path = path
	t.remaining = bytes
	t.onDone = onDone
	e.addTask(t)
	e.addFlow(t)
	if e.probe != nil {
		// Join the path name once here; the finish report reuses it.
		t.where = pathName(path)
		e.probe.TaskStart(e.now, t.id, telemetry.TaskFlow, t.where, bytes)
	}
}

// addFlow enters a new flow into the member list of every resource on
// its path and marks the path for the next filling run.
func (e *Engine) addFlow(t *task) {
	for _, r := range t.path {
		r.members = append(r.members, t)
	}
	e.dirtyRes = append(e.dirtyRes, t.path...)
}

// removeFlow drops a completed flow from the member lists of its path
// and marks the path for the next filling run. A resource carries few
// flows at once (bounded by concurrent transfers through one link), and
// the oldest flow tends to finish first, so the linear order-preserving
// removal is cheaper than any indexed structure.
func (e *Engine) removeFlow(t *task) {
	for _, r := range t.path {
		i := slices.Index(r.members, t)
		if i < 0 {
			panic("sim: completed flow missing from resource " + r.name)
		}
		copy(r.members[i:], r.members[i+1:])
		r.members[len(r.members)-1] = nil
		r.members = r.members[:len(r.members)-1]
	}
	e.dirtyRes = append(e.dirtyRes, t.path...)
}

// pathName joins a flow path's resource names for probe reports. The
// overwhelmingly common shapes — one hop, and the two-hop up+down pair
// every cluster route uses — return an interned string; only longer
// paths build one.
func pathName(path []*Resource) string {
	switch len(path) {
	case 1:
		return path[0].name
	case 2:
		r, next := path[0], path[1]
		if s, ok := r.pairName[next]; ok {
			return s
		}
		s := r.name + "+" + next.name
		if r.pairName == nil {
			r.pairName = make(map[*Resource]string, 8)
		}
		r.pairName[next] = s
		return s
	}
	names := make([]string, len(path))
	for i, r := range path {
		names[i] = r.name
	}
	return strings.Join(names, "+")
}

// After schedules onDone to run in scheduler context after delay seconds of
// virtual time.
func (e *Engine) After(delay float64, onDone func()) {
	checkDelay(delay)
	t := e.newTask()
	t.kind = taskTimer
	t.deadline = e.now + delay
	t.onDone = onDone
	e.addTask(t)
	if e.probe != nil {
		e.probe.TaskStart(e.now, t.id, telemetry.TaskTimer, "", delay)
	}
}

// checkDelay rejects timer delays that have no place on the clock: a
// negative delay would run time backwards, and a NaN deadline has no
// position in the timer heap's order.
func checkDelay(d float64) {
	if d < 0 {
		panic("sim: negative delay")
	}
	if math.IsNaN(d) {
		panic("sim: NaN delay")
	}
}

// Compute blocks the calling process for the given amount of work (in
// dedicated-processor seconds) on cpu, stretched by whatever contention the
// processor-sharing model imposes. The task wakes the process directly at
// completion (no callback closure), and the block reason is formatted only
// if a deadlock report or probe needs it.
func (p *Proc) Compute(cpu *CPU, work float64) {
	e := p.eng
	if work <= 0 {
		t := e.newTask()
		t.kind = taskTimer
		t.deadline = e.now
		t.proc = p
		e.addTask(t)
		if e.probe != nil {
			e.probe.TaskStart(e.now, t.id, telemetry.TaskTimer, "", 0)
		}
	} else {
		t := e.newTask()
		t.kind = taskCompute
		t.cpu = cpu
		t.remaining = work
		t.proc = p
		e.addTask(t)
		e.addActive(cpu, 1)
		if e.probe != nil {
			e.probe.TaskStart(e.now, t.id, telemetry.TaskCompute, cpu.name, work)
		}
	}
	// Probed runs render the reason regardless, so resolve it through the
	// CPU's memo and block on the pre-rendered text; unprobed runs keep
	// the lazy form, formatted only if a deadlock report needs it.
	if e.probe != nil {
		p.block(StaticReason(cpu.computeText(work)))
	} else {
		p.block(computeReason(work, cpu.name))
	}
}

// Sleep blocks the calling process for d seconds of virtual time.
func (p *Proc) Sleep(d float64) {
	checkDelay(d)
	e := p.eng
	t := e.newTask()
	t.kind = taskTimer
	t.deadline = e.now + d
	t.proc = p
	e.addTask(t)
	if e.probe != nil {
		e.probe.TaskStart(e.now, t.id, telemetry.TaskTimer, "", d)
		p.block(StaticReason(e.sleepText(d)))
	} else {
		p.block(sleepReason(d))
	}
}

// computeRates rebuilds every rate assignment from scratch: CPU runnable
// counts and processor-sharing rates, resource member lists, then max-min
// fair flow rates with every resource marked dirty. The event loop itself
// never calls this — CPU rates are maintained by addActive at task
// start/finish and flow rates by computeFlowRates over the components a
// change touched — but the rebuild exists for direct-injection tests
// that bypass the Start* constructors, and as the from-scratch state the
// incremental path must reproduce bit for bit.
func (e *Engine) computeRates() {
	for _, c := range e.cpus {
		c.active = 0
	}
	clear(e.busyCPUs)
	e.busyCPUs = e.busyCPUs[:0]
	for _, r := range e.links {
		clear(r.members)
		r.members = r.members[:0]
	}
	for _, t := range e.tasks {
		switch t.kind {
		case taskCompute:
			e.addActive(t.cpu, 1)
		case taskFlow:
			e.addFlow(t)
		}
	}
	e.dirtyRes = append(e.dirtyRes, e.links...)
	e.computeFlowRates()
}

// computeFlowRates assigns max-min fair rates via progressive filling to
// the flows of every link component a change touched since the last run:
// a flow started or finished on a resource of the component, or a
// resource's capacity changed. advance calls it only when e.dirtyRes is
// non-empty.
//
// The run first walks the resource->flow->resource graph (Resource.members
// and task.path) from each dirty resource, collecting the connected
// flows and resetting each reached resource's scratch state; a collected
// flow's rate is set to -1 (unfixed), which also marks it visited. The
// collected flows are sorted by task id, i.e. creation order, and filled
// exactly as a from-scratch run over all flows would fill them:
// resources join res in first-touch order, the bottleneck is the
// smallest remCap/unfixed share with ties to the earliest in res, and
// every flow through it is fixed at that share in creation order.
//
// Refilling only the touched components is exact, not approximate.
// Filling decomposes over connected components: a component's state
// changes only when one of its own resources is the bottleneck, and its
// argmin with ties broken by first-touch order is the same whether its
// resources sit in res alone or interleaved with another component's. So
// each component sees the same bottleneck sequence and each resource the
// same sequence of remCap -= share subtractions either way, and an
// untouched component's rates and remCap are bit-identical to what a
// full re-fill would produce. Resources left without flows are reset to
// their full capacity by the walk.
func (e *Engine) computeFlowRates() {
	e.rateEpoch++
	flows := e.flowScratch[:0]
	work := e.dirtyRes
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		if r.epoch == e.rateEpoch {
			continue
		}
		r.epoch = e.rateEpoch
		r.remCap = r.capacity
		r.unfixed = 0
		r.nflows = 0
		for _, f := range r.members {
			if f.rate == -1 {
				continue
			}
			f.rate = -1 // unfixed
			flows = append(flows, f)
			for _, next := range f.path {
				if next.epoch != e.rateEpoch {
					work = append(work, next)
				}
			}
		}
	}
	e.dirtyRes = work
	slices.SortFunc(flows, func(a, b *task) int { return cmp.Compare(a.id, b.id) })
	res := e.resScratch[:0]
	for _, t := range flows {
		for _, r := range t.path {
			if r.nflows == 0 {
				res = append(res, r)
			}
			r.unfixed++
			r.nflows++
		}
	}
	unfixed := len(flows)
	for unfixed > 0 {
		// Find the bottleneck resource: smallest fair share among resources
		// that still carry unfixed flows. Iteration over res (flow creation
		// order) keeps tie-breaking deterministic.
		var bottleneck *Resource
		share := math.Inf(1)
		for _, r := range res {
			if r.unfixed == 0 {
				continue
			}
			s := r.remCap / float64(r.unfixed)
			if s < share {
				share = s
				bottleneck = r
			}
		}
		if bottleneck == nil {
			panic("sim: max-min filling found no bottleneck with flows unfixed")
		}
		for _, f := range flows {
			if f.rate >= 0 {
				continue
			}
			uses := false
			for _, r := range f.path {
				if r == bottleneck {
					uses = true
					break
				}
			}
			if !uses {
				continue
			}
			f.rate = share
			unfixed--
			for _, r := range f.path {
				r.remCap -= share
				if r.remCap < 0 {
					r.remCap = 0
				}
				r.unfixed--
			}
		}
	}
	e.resScratch = res
	e.flowScratch = flows
}

// emitUtilisation reports per-CPU runnable counts and per-link flow
// rates to the probe, emitting only values that changed since the last
// report so idle resources cost nothing.
func (e *Engine) emitUtilisation() {
	rp := e.resProbe
	for _, c := range e.cpus {
		if c.active != c.probed {
			c.probed = c.active
			if rp != nil {
				if c.probeID < 0 {
					c.probeID = rp.ResourceID(telemetry.ResourceCPU, c.name)
				}
				rp.CPULoadID(e.now, c.probeID, c.active)
			} else {
				e.probe.CPULoad(e.now, c.name, c.active)
			}
		}
	}
	for _, r := range e.links {
		rate, flows := 0.0, 0
		if len(r.members) > 0 {
			rate, flows = r.capacity-r.remCap, r.nflows
		}
		if rate != r.probedRate || flows != r.probedFlows {
			r.probedRate, r.probedFlows = rate, flows
			if rp != nil {
				if r.probeID < 0 {
					r.probeID = rp.ResourceID(telemetry.ResourceLink, r.name)
				}
				rp.LinkRateID(e.now, r.probeID, flows, rate)
			} else {
				e.probe.LinkRate(e.now, r.name, flows, rate)
			}
		}
	}
}

// advance moves virtual time forward to the next task completion and runs
// the completion callbacks in task-creation order. Must only be called when
// no process is runnable and at least one task is active.
//
// Compute and flow tasks are scanned every event, since their time to
// completion changes with their rates. Timers are not: a timer's time to
// completion is fl(deadline - now), which is monotone in the deadline, so
// the heap's top yields the same minimum a scan would, and popping while
// the top is within the completion cutoff yields exactly the timers a
// scan would complete. The popped timers are then merged into the
// completion batch by task id, so callbacks and wakes run in the same
// order as if every task had been scanned.
//
// The loop is allocation-free: completions collect into a reused scratch
// slice, survivors compact e.tasks in place (the write index never passes
// the read index), the heap keeps its backing array, and finished tasks
// return to the pool. e.tasks is append-only between compactions, so it
// stays sorted by task id; only a batch that includes timers needs
// sorting.
func (e *Engine) advance() {
	if len(e.dirtyRes) > 0 {
		e.computeFlowRates()
	}
	if e.probe != nil {
		e.emitUtilisation()
	}
	// Single scan: compute each task's time-to-completion once, cache it
	// for the classification below, and track the minimum.
	dt := math.Inf(1)
	for _, t := range e.tasks {
		var d float64
		if t.kind == taskCompute {
			d = t.remaining / t.cpu.rate
		} else {
			d = t.remaining / t.rate
		}
		t.due = d
		if d < dt {
			dt = d
		}
	}
	if len(e.timers) > 0 {
		if d := e.timers[0].deadline - e.now; d < dt {
			dt = d
		}
	}
	if dt < 0 {
		dt = 0
	}
	if math.IsInf(dt, 1) {
		panic("sim: advance with no finishing task")
	}
	// Accumulate per-CPU busy time over the interval: a group is busy
	// while at least one compute task is runnable on it.
	for _, c := range e.busyCPUs {
		c.busy += dt
	}
	// Identify completions using the cached time-to-completion, with a
	// small relative slack so float drift cannot strand a near-zero
	// remainder. Flow progress over the interval is charged to every
	// resource on the flow's path as bytes carried.
	const slack = 1e-12
	cutoff := dt*(1+slack) + 1e-15
	completed := e.completedScratch[:0]
	keep := 0
	for _, t := range e.tasks {
		if t.due <= cutoff {
			if t.kind == taskFlow {
				for _, r := range t.path {
					r.bytes += t.remaining
				}
			}
			completed = append(completed, t)
		} else {
			if t.kind == taskCompute {
				t.remaining -= t.cpu.rate * dt
			} else {
				t.remaining -= t.rate * dt
				for _, r := range t.path {
					r.bytes += t.rate * dt
				}
			}
			e.tasks[keep] = t
			keep++
		}
	}
	for i := keep; i < len(e.tasks); i++ {
		e.tasks[i] = nil
	}
	e.tasks = e.tasks[:keep]
	n := len(completed)
	for len(e.timers) > 0 && e.timers[0].deadline-e.now <= cutoff {
		completed = append(completed, e.popTimer())
	}
	if len(completed) > n {
		// Timers pop in deadline order; restore creation order.
		slices.SortFunc(completed, func(a, b *task) int { return cmp.Compare(a.id, b.id) })
	}
	e.now += dt
	e.completions += len(completed)
	for _, t := range completed {
		t.remaining = 0
		switch t.kind {
		case taskCompute:
			e.addActive(t.cpu, -1)
		case taskFlow:
			e.removeFlow(t)
		}
		if e.probe != nil {
			e.emitTaskFinish(t)
		}
		if t.onDone != nil {
			t.onDone()
		} else if t.proc != nil {
			e.wake(t.proc)
		}
	}
	// Recycle after every callback ran: callbacks may inspect nothing of
	// the task, but they do start new tasks, and those must not collide
	// with entries still pending in this batch.
	for i, t := range completed {
		e.release(t)
		completed[i] = nil
	}
	e.completedScratch = completed[:0]
}

// emitTaskFinish reports a task completion to the probe.
func (e *Engine) emitTaskFinish(t *task) {
	switch t.kind {
	case taskCompute:
		e.probe.TaskFinish(e.now, t.id, telemetry.TaskCompute, t.cpu.name)
	case taskFlow:
		e.probe.TaskFinish(e.now, t.id, telemetry.TaskFlow, t.where)
	default:
		e.probe.TaskFinish(e.now, t.id, telemetry.TaskTimer, "")
	}
}
