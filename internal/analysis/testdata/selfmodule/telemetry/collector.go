package telemetry

// OpSpanRec is one recorded MPI operation span.
type OpSpanRec struct {
	Rank       int
	Op         string
	Collective bool
	Peer       int
	Bytes      int64
	Tag        int
	Path       string
	Start, End float64
	Split      Split
}

// Duration returns the span's elapsed virtual time.
func (s OpSpanRec) Duration() float64 { return s.End - s.Start }

// BlockSpan is one interval a virtual process spent parked.
type BlockSpan struct {
	Proc       int
	Reason     string
	Start, End float64
}

// MsgRec is one message transfer window: the virtual interval a payload
// was in motion, with enough identity to pair it with the waits it
// released. Seq orders causal records in emission order, which within
// one rank is program order.
type MsgRec struct {
	ID         int64
	Src, Dst   int // ranks
	SrcNode    int
	DstNode    int
	Tag        int
	Bytes      int64
	Path       string // PathEager or PathRendezvous
	Collective bool   // collective-internal traffic
	By         int    // rank whose call started the transfer
	Start      float64
	End        float64 // negative while still in flight
	Seq        int
}

// WaitRec is one blocking wait released by a message event: the rank
// parked at Start and woke at End, which equals the named message's
// delivery time exactly.
type WaitRec struct {
	Rank       int
	MsgID      int64
	Op         string // WaitSend or WaitRecv
	Start, End float64
	Seq        int
}

// CounterSample is one point of a utilisation time series (CPU runnable
// count or link rate).
type CounterSample struct {
	T     float64
	Value float64
	Aux   float64 // links: flow count
}

// ProcInfo describes one spawned virtual process.
type ProcInfo struct {
	ID     int
	Name   string
	Daemon bool
	Done   float64 // body return time; negative while running
}

// resSeries is one resource's utilisation time series together with its
// registry gauge, so each probe emission costs a single map lookup
// instead of a name concatenation plus registry lookup.
type resSeries struct {
	gauge   *Gauge
	samples []CounterSample
}

// utilSlot is one resource registered through ResourceProbe: the series
// pointer is resolved lazily at the first sample, so a registered but
// never-sampled resource leaves the collector's exported state exactly as
// if it had never been mentioned.
type utilSlot struct {
	kind string
	name string
	s    *resSeries
}

// opMetrics caches one MPI operation's per-op registry handles.
type opMetrics struct {
	count *Counter
	time  *Histogram
}

// Collector implements Sink, accumulating probe events into a metrics
// registry plus the span and time-series records the Perfetto exporter,
// the timeline renderer and the profile builder consume. One Collector
// observes one simulated run; use a fresh one per run.
//
// The probe methods are the simulator's telemetry hot path: they run
// several times per simulation event. Registry handles for fixed-name
// metrics are cached on first use (creation stays lazy, so rendered
// output is identical to uncached lookups), per-op and per-resource
// handles are cached in small maps keyed by the raw name, and record
// storage is preallocated in batches.
type Collector struct {
	// Metrics is the virtual-clock registry fed by the probes; callers
	// may register their own metrics in it too.
	Metrics *Registry

	// Scenario and Nodes are set by ScenarioStart.
	Scenario string
	Nodes    int

	procs     []ProcInfo
	openBlock []int // proc id -> index+1 into blocks of the open span (0 = none)
	// blocks is chunked: block i lives at blocks[i>>blockChunkShift]
	// [i&blockChunkMask]. Chunks are written once and never copied, so
	// recording N blocks allocates exactly N slots — a contiguous slice
	// would recopy (and re-clear) the whole history on every growth.
	blocks     [][]BlockSpan
	nblocks    int
	spans      []OpSpanRec
	msgs       []MsgRec
	msgIdx     map[int64]int // message id -> index into msgs
	waits      []WaitRec
	causalSeq  int
	rankNode   map[int]int
	rankFinish map[int]float64
	cpuSeries  map[string]*resSeries
	linkSeries map[string]*resSeries
	utilSlots  []utilSlot
	ops        map[string]*opMetrics
	contenders int
	last       float64 // latest virtual time observed

	// lazily cached fixed-name registry handles
	cTaskCompute *Counter
	cTaskFlow    *Counter
	cTaskTimer   *Counter
	cFlowBytes   *Counter
	cCompletions *Counter
	hBlockTime   *Histogram
	cP2PBytes    *Counter
	cTimeCompute *Counter
	cTimeBlocked *Counter
	cTimeXfer    *Counter
	cRendezvous  *Counter
	cEager       *Counter
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	// Span, message and wait storage is preallocated lazily on first use
	// (see grown below): a simulator-only run never touches the MPI or
	// causal records, so it should not pay for their batches.
	return &Collector{
		Metrics:    NewRegistry(),
		rankNode:   make(map[int]int),
		rankFinish: make(map[int]float64),
		cpuSeries:  make(map[string]*resSeries),
		linkSeries: make(map[string]*resSeries),
		ops:        make(map[string]*opMetrics),
	}
}

// grown returns s with room for at least one more element, doubling the
// capacity when full. The runtime's append switches to 1.25x growth for
// large slices, which on the hot record slices (tens of thousands of
// entries) costs several extra reallocation copies per run; doubling
// keeps total copying linear in the final size.
func grown[T any](s []T) []T {
	if len(s) == cap(s) {
		ns := make([]T, len(s), 2*cap(s)+16)
		copy(ns, s)
		return ns
	}
	return s
}

// Block-chunk geometry: 4096 spans (160KB) per chunk.
const (
	blockChunkShift = 12
	blockChunkMask  = 1<<blockChunkShift - 1
)

// appendBlock stores b and returns its index.
func (c *Collector) appendBlock(b BlockSpan) int {
	if c.nblocks>>blockChunkShift == len(c.blocks) {
		c.blocks = append(c.blocks, make([]BlockSpan, 0, 1<<blockChunkShift))
	}
	ch := &c.blocks[len(c.blocks)-1]
	*ch = append(*ch, b)
	i := c.nblocks
	c.nblocks++
	return i
}

// blockAt returns block i for in-place update.
func (c *Collector) blockAt(i int) *BlockSpan {
	return &c.blocks[i>>blockChunkShift][i&blockChunkMask]
}

// eachBlock visits every recorded block span in emission order.
func (c *Collector) eachBlock(f func(*BlockSpan)) {
	for _, ch := range c.blocks {
		for i := range ch {
			f(&ch[i])
		}
	}
}

// counter returns *p, resolving and caching the named registry counter on
// first use.
func (c *Collector) counter(p **Counter, name string) *Counter {
	if *p == nil {
		*p = c.Metrics.Counter(name)
	}
	return *p
}

func (c *Collector) see(t float64) {
	if t > c.last {
		c.last = t
	}
}

// Duration returns the latest virtual time any probe reported.
func (c *Collector) Duration() float64 { return c.last }

// Spans returns the recorded MPI operation spans in completion order.
func (c *Collector) Spans() []OpSpanRec { return c.spans }

// ScenarioStart implements ClusterProbe.
func (c *Collector) ScenarioStart(name string, nodes int) {
	c.Scenario = name
	c.Nodes = nodes
}

// ContenderStart implements ClusterProbe.
func (c *Collector) ContenderStart(kind string, node int, name string) {
	c.contenders++
	c.Metrics.Counter("cluster.contenders."+kind).Add(0, 1)
}

// Contenders returns the number of competing workloads the scenario
// spawned.
func (c *Collector) Contenders() int { return c.contenders }

// ProcSpawn implements SimProbe.
func (c *Collector) ProcSpawn(id int, name string, daemon bool) {
	for len(c.procs) <= id {
		c.procs = append(c.procs, ProcInfo{ID: len(c.procs), Done: -1})
	}
	c.procs[id] = ProcInfo{ID: id, Name: name, Daemon: daemon, Done: -1}
	c.Metrics.Counter("sim.procs").Add(0, 1)
}

// ProcBlock implements SimProbe.
func (c *Collector) ProcBlock(t float64, id int, reason string) {
	c.see(t)
	for len(c.openBlock) <= id {
		c.openBlock = append(c.openBlock, 0)
	}
	c.openBlock[id] = c.appendBlock(BlockSpan{Proc: id, Reason: reason, Start: t, End: -1}) + 1
}

// ProcWake implements SimProbe. A wake with no open block (the initial
// release at time zero) is ignored.
func (c *Collector) ProcWake(t float64, id int) {
	c.see(t)
	if id < len(c.openBlock) {
		if i := c.openBlock[id]; i != 0 {
			b := c.blockAt(i - 1)
			b.End = t
			if c.hBlockTime == nil {
				c.hBlockTime = c.Metrics.Histogram("sim.block_time")
			}
			c.hBlockTime.Observe(t - b.Start)
			c.openBlock[id] = 0
		}
	}
}

// ProcDone implements SimProbe.
func (c *Collector) ProcDone(t float64, id int) {
	c.see(t)
	if id < len(c.procs) {
		c.procs[id].Done = t
	}
}

// TaskStart implements SimProbe.
func (c *Collector) TaskStart(t float64, id int64, kind, where string, amount float64) {
	c.see(t)
	switch kind {
	case TaskCompute:
		c.counter(&c.cTaskCompute, "sim.tasks."+TaskCompute).Add(t, 1)
	case TaskFlow:
		c.counter(&c.cTaskFlow, "sim.tasks."+TaskFlow).Add(t, 1)
		c.counter(&c.cFlowBytes, "sim.flow_bytes").Add(t, amount)
	case TaskTimer:
		c.counter(&c.cTaskTimer, "sim.tasks."+TaskTimer).Add(t, 1)
	default:
		c.Metrics.Counter("sim.tasks."+kind).Add(t, 1)
	}
}

// TaskFinish implements SimProbe.
func (c *Collector) TaskFinish(t float64, id int64, kind, where string) {
	c.see(t)
	c.counter(&c.cCompletions, "sim.completions").Add(t, 1)
}

// cpuSeriesFor resolves (creating on first use) the named CPU's series.
func (c *Collector) cpuSeriesFor(cpu string) *resSeries {
	s := c.cpuSeries[cpu]
	if s == nil {
		s = &resSeries{gauge: c.Metrics.Gauge("sim.cpu_runnable." + cpu)}
		c.cpuSeries[cpu] = s
	}
	return s
}

// linkSeriesFor resolves (creating on first use) the named link's series.
func (c *Collector) linkSeriesFor(link string) *resSeries {
	s := c.linkSeries[link]
	if s == nil {
		s = &resSeries{gauge: c.Metrics.Gauge("sim.link_rate." + link)}
		c.linkSeries[link] = s
	}
	return s
}

// CPULoad implements SimProbe.
func (c *Collector) CPULoad(t float64, cpu string, runnable int) {
	c.see(t)
	s := c.cpuSeriesFor(cpu)
	s.samples = append(grown(s.samples), CounterSample{T: t, Value: float64(runnable)})
	s.gauge.Set(t, float64(runnable))
}

// LinkRate implements SimProbe.
func (c *Collector) LinkRate(t float64, link string, flows int, rate float64) {
	c.see(t)
	s := c.linkSeriesFor(link)
	s.samples = append(grown(s.samples), CounterSample{T: t, Value: rate, Aux: float64(flows)})
	s.gauge.Set(t, rate)
}

// ResourceID implements ResourceProbe. Nothing is created in the
// registry or series maps until the resource's first sample arrives, so
// registration alone leaves exported output untouched.
func (c *Collector) ResourceID(kind, name string) int {
	c.utilSlots = append(c.utilSlots, utilSlot{kind: kind, name: name})
	return len(c.utilSlots) - 1
}

// CPULoadID implements ResourceProbe.
func (c *Collector) CPULoadID(t float64, id int, runnable int) {
	c.see(t)
	slot := &c.utilSlots[id]
	s := slot.s
	if s == nil {
		s = c.cpuSeriesFor(slot.name)
		slot.s = s
	}
	s.samples = append(grown(s.samples), CounterSample{T: t, Value: float64(runnable)})
	s.gauge.Set(t, float64(runnable))
}

// LinkRateID implements ResourceProbe.
func (c *Collector) LinkRateID(t float64, id int, flows int, rate float64) {
	c.see(t)
	slot := &c.utilSlots[id]
	s := slot.s
	if s == nil {
		s = c.linkSeriesFor(slot.name)
		slot.s = s
	}
	s.samples = append(grown(s.samples), CounterSample{T: t, Value: rate, Aux: float64(flows)})
	s.gauge.Set(t, rate)
}

// RankStart implements MPIProbe.
func (c *Collector) RankStart(rank, node int) {
	c.rankNode[rank] = node
	c.Metrics.Counter("mpi.ranks").Add(0, 1)
}

// OpSpan implements MPIProbe.
func (c *Collector) OpSpan(rank int, op string, collective bool, peer int, bytes int64, tag int, path string, start, end float64, split Split) {
	c.see(end)
	if c.spans == nil {
		c.spans = make([]OpSpanRec, 0, 512)
	}
	c.spans = append(grown(c.spans), OpSpanRec{
		Rank: rank, Op: op, Collective: collective,
		Peer: peer, Bytes: bytes, Tag: tag, Path: path,
		Start: start, End: end, Split: split,
	})
	om := c.ops[op]
	if om == nil {
		om = &opMetrics{
			count: c.Metrics.Counter("mpi.ops." + op),
			time:  c.Metrics.Histogram("mpi.op_time." + op),
		}
		c.ops[op] = om
	}
	om.count.Add(end, 1)
	om.time.Observe(end - start)
	if bytes > 0 && !collective {
		c.counter(&c.cP2PBytes, "mpi.p2p_bytes").Add(end, float64(bytes))
	}
	c.counter(&c.cTimeCompute, "mpi.time.compute").Add(end, split.Compute)
	c.counter(&c.cTimeBlocked, "mpi.time.blocked").Add(end, split.Blocked)
	c.counter(&c.cTimeXfer, "mpi.time.transfer").Add(end, split.Transfer)
	if path == PathRendezvous {
		c.counter(&c.cRendezvous, "mpi.rendezvous_msgs").Add(end, 1)
	} else if path == PathEager {
		c.counter(&c.cEager, "mpi.eager_msgs").Add(end, 1)
	}
}

// MsgStart implements CausalProbe.
func (c *Collector) MsgStart(id int64, src, dst, srcNode, dstNode, tag int, bytes int64, path string, collective bool, by int, t float64) {
	c.see(t)
	c.causalSeq++
	if c.msgIdx == nil {
		c.msgIdx = make(map[int64]int, 512)
		c.msgs = make([]MsgRec, 0, 512)
	}
	c.msgIdx[id] = len(c.msgs)
	c.msgs = append(grown(c.msgs), MsgRec{
		ID: id, Src: src, Dst: dst, SrcNode: srcNode, DstNode: dstNode,
		Tag: tag, Bytes: bytes, Path: path, Collective: collective,
		By: by, Start: t, End: -1, Seq: c.causalSeq,
	})
}

// MsgDeliver implements CausalProbe.
func (c *Collector) MsgDeliver(id int64, t float64) {
	c.see(t)
	if i, ok := c.msgIdx[id]; ok {
		c.msgs[i].End = t
	}
}

// WaitEnd implements CausalProbe.
func (c *Collector) WaitEnd(rank int, msgID int64, op string, start, end float64) {
	c.see(end)
	c.causalSeq++
	if c.waits == nil {
		c.waits = make([]WaitRec, 0, 512)
	}
	c.waits = append(grown(c.waits), WaitRec{Rank: rank, MsgID: msgID, Op: op, Start: start, End: end, Seq: c.causalSeq})
}

// Messages returns the recorded transfer windows in start order.
func (c *Collector) Messages() []MsgRec { return c.msgs }

// Waits returns the recorded blocking waits in completion order.
func (c *Collector) Waits() []WaitRec { return c.waits }

// Message returns the transfer window of message id.
func (c *Collector) Message(id int64) (MsgRec, bool) {
	if i, ok := c.msgIdx[id]; ok {
		return c.msgs[i], true
	}
	return MsgRec{}, false
}

// RankFinish implements MPIProbe.
func (c *Collector) RankFinish(rank int, t float64) {
	c.see(t)
	c.rankFinish[rank] = t
	c.Metrics.Gauge("mpi.rank_finish").Set(t, t)
}

// NRanks returns the number of ranks observed.
func (c *Collector) NRanks() int { return len(c.rankNode) }

// RankFinishTime returns rank's recorded finish time.
func (c *Collector) RankFinishTime(rank int) (float64, bool) {
	t, ok := c.rankFinish[rank]
	return t, ok
}

// rankSpans groups the op spans per rank, preserving time order within
// each rank (spans arrive globally time-ordered, so per-rank order is
// preserved by a stable partition).
func (c *Collector) rankSpans() [][]OpSpanRec {
	n := c.NRanks()
	for _, s := range c.spans {
		if s.Rank >= n {
			n = s.Rank + 1
		}
	}
	per := make([][]OpSpanRec, n)
	for _, s := range c.spans {
		per[s.Rank] = append(per[s.Rank], s)
	}
	return per
}

// rankEnd returns rank's finish time, falling back to its last span end.
func (c *Collector) rankEnd(rank int, spans []OpSpanRec) float64 {
	if t, ok := c.rankFinish[rank]; ok {
		return t
	}
	if len(spans) > 0 {
		return spans[len(spans)-1].End
	}
	return 0
}
