// Package sim implements a deterministic discrete-event simulator with
// cooperatively scheduled virtual processes and fluid resource models.
//
// The simulator is the substrate on which the message-passing runtime
// (internal/mpi) and the simulated cluster testbed (internal/cluster) are
// built. It replaces the physical cluster used by the paper: virtual
// processes stand in for OS processes, CPU tasks for computation, and
// network flows for wire transfers.
//
// Determinism: exactly one virtual process executes user code at any real
// instant, and processes that become runnable at the same virtual time run
// in process-id order. Task completions that coincide in virtual time are
// processed in task-creation order. Two runs of the same program therefore
// produce identical virtual timings.
//
// Resource models:
//
//   - CPUs use processor sharing: a node with ncpu processors and n runnable
//     compute tasks gives each task rate speed*min(1, ncpu/n).
//   - Network flows share link capacity max-min fairly (progressive
//     filling), the standard fluid approximation of TCP fairness on the
//     paper's switched Ethernet testbed.
//   - Timers fire at an absolute virtual deadline.
//
// Performance: the event loop is incremental and allocation-free in
// steady state, and its host cost per event does not grow with the
// number of CPUs or concurrent flows a change leaves untouched.
// Processor-sharing rates are maintained as per-CPU values updated when a
// group's runnable count changes, and busy time is charged only to the
// groups on a busy list. The max-min filling reruns only over the link
// components whose flow set or capacities changed: it walks from the
// dirty resources over the resource->flow->resource graph and refills
// the flows it reaches, which is exact because filling decomposes over
// connected components (see computeFlowRates). Timers, whose deadlines
// never change, wait in a min-heap instead of the per-event scan of
// compute and flow tasks (see advance). Each proc body runs as a
// coroutine (iter.Pull), so a switch between procs is a direct coroutine
// switch, not a channel hand-off through the Go scheduler: the proc that
// blocks runs the event loop itself and yields to the trampoline in Run,
// naming the next ready proc, or simply continues when it is that proc
// (see block). Task structs are pooled; the ready queue, the task list,
// the timer heap and the filling's scratch lists reuse their backing
// arrays.
// All of it preserves bit-for-bit virtual timings — every floating-point
// expression the old from-scratch recomputation evaluated per event is
// either evaluated identically or skipped only when its inputs are
// provably unchanged (the determinism goldens at the repo root pin this).
package sim

import (
	"context"
	"fmt"
	"sort"

	"perfskel/internal/telemetry"
)

// Engine is a discrete-event simulation engine. Create one with New, add
// resources and processes, then call Run. The zero value is not usable.
type Engine struct {
	now         float64
	procs       []*Proc
	ready       []*Proc     // runnable procs, kept sorted by id
	readyHead   int         // index of the queue's front within ready
	tasks       []*task     // active compute and flow tasks, creation (= id) order
	timers      []*task     // active timers, a min-heap on (deadline, id)
	dirtyRes    []*Resource // resources whose flows or capacity changed since the last max-min run
	busyCPUs    []*CPU      // CPU groups with at least one running compute task, any order
	rateEpoch   uint64      // increments per max-min run; Resource.epoch marks the run's walk
	taskSeq     int64
	completions int
	alive       int   // non-daemon procs that have not finished
	switchTo    *Proc // the proc Run resumes when the running one yields; nil ends the run
	failure     error
	ran         bool

	cpus  []*CPU
	links []*Resource

	// scratch storage reused across events so the steady-state loop
	// allocates nothing.
	resScratch       []*Resource
	flowScratch      []*task
	completedScratch []*task
	taskPool         []*task

	// sleepMemo caches rendered sleep-block reasons for probed runs,
	// keyed by the delay; CPU.textMemo is its per-CPU counterpart for
	// compute reasons. Wait reasons are rendered fresh each block:
	// message tags typically make them unique, so a cache keyed by the
	// full Reason struct only hashes and grows without ever hitting.
	sleepMemo map[float64]string

	probe telemetry.SimProbe
	// resProbe is probe's optional id-based utilisation extension,
	// resolved once at SetProbe so emissions skip the string-keyed path.
	resProbe telemetry.ResourceProbe

	// abortCtx is the cancelable context installed by SetContext, or nil
	// when none is attached (the common batch case, which then pays
	// nothing).
	abortCtx context.Context
	ticks    uint // scheduler iterations since the last abort check

	// MaxVirtualTime aborts Run with an error if the virtual clock passes
	// it. Zero means no limit. It is a safety net against runaway
	// workloads, not a normal termination mechanism.
	MaxVirtualTime float64
}

// New returns an empty engine with the clock at virtual time zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// SetProbe attaches a telemetry probe observing proc state transitions,
// task lifecycle and resource utilisation changes. Call it before Spawn
// so proc registrations are seen. A nil probe (the default) disables
// instrumentation entirely: every emission site is guarded by a nil
// check, so the disabled path costs no allocations.
func (e *Engine) SetProbe(p telemetry.SimProbe) {
	e.probe = p
	e.resProbe, _ = p.(telemetry.ResourceProbe)
	// Registered ids belong to the previous probe; drop them so resources
	// re-register with the new one on their next emission.
	for _, c := range e.cpus {
		c.probeID = -1
	}
	for _, r := range e.links {
		r.probeID = -1
	}
}

// abortCheckInterval is how many scheduler iterations pass between
// context checks: frequent enough that an abandoned simulation stops
// within microseconds of real time, sparse enough that the check is
// invisible next to the per-event work.
const abortCheckInterval = 64

// SetContext attaches a cancellation context to the engine. Run checks
// it at simulation-event granularity (every scheduler iteration batch)
// and aborts with an error wrapping ctx.Err() once the context is done,
// unwinding every virtual process so no coroutine outlives the run. A
// nil or never-canceled context (context.Background) costs nothing.
// Call SetContext before Run.
func (e *Engine) SetContext(ctx context.Context) {
	// Done returns nil for contexts that can never be canceled; keeping
	// abortCtx nil then skips the checkpoint entirely.
	if ctx == nil || ctx.Done() == nil {
		e.abortCtx = nil
		return
	}
	e.abortCtx = ctx
}

// aborted reports whether the attached context has been canceled,
// rate-limited to one real check per abortCheckInterval iterations.
func (e *Engine) aborted() bool {
	if e.abortCtx == nil {
		return false
	}
	e.ticks++
	return e.ticks%abortCheckInterval == 0 && e.abortCtx.Err() != nil
}

// Proc is a virtual process: a coroutine whose passage of virtual time is
// entirely explicit through Compute, Sleep and WaitEvent calls. User code
// between those calls consumes zero virtual time.
type Proc struct {
	id     int
	name   string
	daemon bool
	eng    *Engine
	parked bool   // blocked, waiting for a wake
	done   bool   // body returned
	reason Reason // what the proc is blocked on, for deadlock reports

	// body runs as the proc's coroutine, which Run starts (see start):
	// resume runs it until it yields or returns, yield suspends it from
	// inside, and stop unwinds a suspended body or discards one that
	// never ran.
	body   func(p *Proc)
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
}

// ID returns the process id, assigned in spawn order starting at zero.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine the process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// Spawn registers a new virtual process running body. Daemon processes
// (such as competing load processes) do not keep the simulation alive: Run
// returns once every non-daemon process has finished. Spawn must be called
// before Run.
//
// Each process runs as a coroutine, started by Run, that also drives the
// event loop whenever the process blocks, and once more when body
// returns: it then names the next ready process (or none) for Run to
// resume. A panic in body fails the run with an error naming the
// process.
func (e *Engine) Spawn(name string, daemon bool, body func(p *Proc)) *Proc {
	if e.ran {
		panic("sim: Spawn after Run")
	}
	p := &Proc{
		id:     len(e.procs),
		name:   name,
		daemon: daemon,
		eng:    e,
		body:   body,
	}
	e.procs = append(e.procs, p)
	if !daemon {
		e.alive++
	}
	if e.probe != nil {
		e.probe.ProcSpawn(p.id, name, daemon)
	}
	return p
}

// run is the proc's coroutine (see start): it runs body and then names
// the next ready proc for Run, or records body's panic as the run's
// failure.
func (p *Proc) run() {
	e := p.eng
	defer func() {
		if r := recover(); r != nil {
			if r == errStopped {
				return // engine shut down while we were blocked
			}
			if e.failure == nil {
				e.failure = fmt.Errorf("sim: proc %q panicked: %v", p.name, r)
			}
			p.done = true
			e.switchTo = nil
		}
	}()
	p.body(p)
	p.done = true
	if !p.daemon {
		e.alive--
	}
	if e.probe != nil {
		e.probe.ProcDone(e.now, p.id)
	}
	e.switchTo = e.next()
}

// errStopped is panicked inside blocked procs when the engine shuts down,
// unwinding their coroutines.
var errStopped = fmt.Errorf("sim: engine stopped")

// block parks the calling proc until it is resumed. r is recorded for
// deadlock diagnostics; its text is materialized only for an attached
// probe or an actual deadlock report. Must be called from the proc's own
// body while it is the running proc.
//
// The blocking proc drives the event loop itself: it runs next inside its
// own coroutine, advancing virtual time until some proc is ready. When
// that proc is the caller (its own task completed first), block returns
// without a switch. Otherwise it records the next proc in switchTo (nil
// when the run is over) and yields to Run, which resumes that proc. All
// engine-state mutations happen before the yield, and exactly one
// coroutine runs at a time.
func (p *Proc) block(r Reason) {
	p.reason = r
	p.parked = true
	e := p.eng
	if e.probe != nil {
		e.probe.ProcBlock(e.now, p.id, e.reasonText(r))
	}
	if next := e.next(); next != p {
		e.switchTo = next
		if !p.yield(struct{}{}) {
			panic(errStopped)
		}
	}
	p.reason = Reason{}
}

// reasonText renders a block reason for the probe. Static reasons (the
// common case: constant strings, memoized compute and sleep text) are
// already rendered; the rest — wait reasons, whose per-message tags make
// memoization useless — format directly.
func (e *Engine) reasonText(r Reason) string {
	if r.kind == reasonStatic {
		return r.str
	}
	return r.String()
}

// sleepText returns the rendered sleep-block reason for delay d,
// memoized per distinct delay.
func (e *Engine) sleepText(d float64) string {
	if s, ok := e.sleepMemo[d]; ok {
		return s
	}
	s := sleepReason(d).String()
	if e.sleepMemo == nil {
		e.sleepMemo = make(map[float64]string, 8)
	}
	if len(e.sleepMemo) < 1<<12 {
		e.sleepMemo[d] = s
	}
	return s
}

// wake moves a parked proc to the ready queue. Must be called from
// scheduler context or from the running proc.
func (e *Engine) wake(p *Proc) {
	if !p.parked {
		panic("sim: wake of non-parked proc " + p.name)
	}
	p.parked = false
	if e.probe != nil {
		e.probe.ProcWake(e.now, p.id)
	}
	// Compact the drained prefix before append would grow the backing
	// array: without this the pop side's head advance would strand
	// capacity and every wake would reallocate (the slice-drift bug the
	// old `ready = ready[1:]` pop had).
	if e.readyHead > 0 && len(e.ready) == cap(e.ready) {
		n := copy(e.ready, e.ready[e.readyHead:])
		for i := n; i < len(e.ready); i++ {
			e.ready[i] = nil
		}
		e.ready = e.ready[:n]
		e.readyHead = 0
	}
	q := e.ready[e.readyHead:]
	i := sort.Search(len(q), func(i int) bool { return q[i].id >= p.id })
	e.ready = append(e.ready, nil)
	copy(e.ready[e.readyHead+i+1:], e.ready[e.readyHead+i:])
	e.ready[e.readyHead+i] = p
}

// popReady removes and returns the lowest-id runnable proc. The queue is
// consumed through a head index; once drained, the backing array is
// reused from the start, so the steady-state schedule allocates nothing.
func (e *Engine) popReady() *Proc {
	p := e.ready[e.readyHead]
	e.ready[e.readyHead] = nil
	e.readyHead++
	if e.readyHead == len(e.ready) {
		e.ready = e.ready[:0]
		e.readyHead = 0
	}
	return p
}

// DeadlockError reports that the simulation can make no further progress
// while non-daemon processes are still blocked.
type DeadlockError struct {
	Time    float64
	Blocked []string // "name: reason" for every blocked proc
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%.6f, blocked: %v", d.Time, d.Blocked)
}

// Run executes the simulation until every non-daemon process finishes. It
// returns a *DeadlockError if no progress is possible, the panic of any
// process converted to an error, or an event-loop error if a completion
// callback panicked. Run may be called only once.
//
// Run is a trampoline: it resumes the first ready proc, and from there on
// the event loop is driven by whichever proc blocks or exits (see block).
// Each one yields back to Run naming the proc to resume next, until next
// reports the run over.
func (e *Engine) Run() error {
	if e.ran {
		panic("sim: Run called twice")
	}
	e.ran = true
	// All procs start ready at time zero, in id order.
	for _, p := range e.procs {
		p.start()
		p.parked = true
		e.wake(p)
	}
	for p := e.next(); p != nil; p = e.switchTo {
		e.switchTo = nil
		p.resume()
	}
	e.shutdown()
	return e.failure
}

// next runs the event loop until a proc is ready and returns it, popped
// from the ready queue, or returns nil when the run is over: a failure
// was recorded, every non-daemon proc finished, the attached context
// fired, the remaining procs deadlocked, or the clock passed
// MaxVirtualTime. It runs in whichever context currently holds control
// (a blocking or exiting proc, or Run before the first proc starts).
func (e *Engine) next() *Proc {
	for {
		if e.failure != nil {
			return nil
		}
		if e.alive == 0 {
			return nil
		}
		if e.aborted() {
			e.failure = fmt.Errorf("sim: run aborted at t=%.6f: %w", e.now, e.abortCtx.Err())
			return nil
		}
		if e.readyHead < len(e.ready) {
			return e.popReady()
		}
		if len(e.tasks) == 0 && len(e.timers) == 0 {
			var blocked []string
			for _, p := range e.procs {
				if !p.done && !p.daemon {
					blocked = append(blocked, p.name+": "+p.reason.String())
				}
			}
			e.failure = &DeadlockError{Time: e.now, Blocked: blocked}
			return nil
		}
		if e.MaxVirtualTime > 0 && e.now > e.MaxVirtualTime {
			e.failure = fmt.Errorf("sim: virtual time %.3f exceeded limit %.3f", e.now, e.MaxVirtualTime)
			return nil
		}
		e.step()
	}
}

// step runs one advance, turning a panic raised inside it — by a
// completion callback, or by the engine's own consistency checks — into
// the run's failure. The panic belongs to the event loop, not to the
// proc whose coroutine happens to be driving it, so it is recovered here
// before it can unwind into (or be swallowed by) that proc's body.
func (e *Engine) step() {
	defer func() {
		if r := recover(); r != nil {
			e.failure = fmt.Errorf("sim: event loop panicked at t=%.6f: %v", e.now, r)
		}
	}()
	e.advance()
}

// shutdown stops every proc's coroutine. An unfinished proc is parked
// inside block, sitting in the ready queue, or has never run; stop
// unwinds the first kind with errStopped and discards the others.
func (e *Engine) shutdown() {
	for _, p := range e.procs {
		if !p.done {
			p.parked = false
		}
		p.stop()
	}
	e.ready = nil
	e.readyHead = 0
}

// CPUStat reports one CPU group's accumulated activity.
type CPUStat struct {
	Name string
	Busy float64 // virtual seconds with at least one runnable compute task
}

// LinkStat reports one network resource's accumulated activity.
type LinkStat struct {
	Name  string
	Bytes float64 // payload bytes carried across the resource
}

// Stats reports engine activity counters, for observability and
// benchmarking. CPUBusy and LinkBytes list every CPU group and network
// resource in creation order, so the report is deterministic.
type Stats struct {
	Events    int     // task completions processed
	Procs     int     // virtual processes spawned
	Now       float64 // final virtual time
	CPUBusy   []CPUStat
	LinkBytes []LinkStat
}

// Stats returns the engine's activity counters.
func (e *Engine) Stats() Stats {
	s := Stats{Events: e.completions, Procs: len(e.procs), Now: e.now}
	s.CPUBusy = make([]CPUStat, len(e.cpus))
	for i, c := range e.cpus {
		s.CPUBusy[i] = CPUStat{Name: c.name, Busy: c.busy}
	}
	s.LinkBytes = make([]LinkStat, len(e.links))
	for i, r := range e.links {
		s.LinkBytes[i] = LinkStat{Name: r.name, Bytes: r.bytes}
	}
	return s
}
