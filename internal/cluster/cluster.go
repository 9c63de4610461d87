// Package cluster models the paper's experimental testbed: a compute
// cluster of dual-CPU nodes joined by full-duplex links through a
// non-blocking crossbar switch, plus the five resource-sharing scenarios
// of the evaluation (competing compute processes and iproute2-style link
// bandwidth limitation).
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"perfskel/internal/sim"
	"perfskel/internal/telemetry"
)

// NodeSpec describes one compute node.
type NodeSpec struct {
	CPUs  int     // processors per node (the paper's testbed: dual CPU)
	Speed float64 // work units per second per processor (1.0 = reference)
}

// Topology describes a cluster: homogeneous or heterogeneous nodes joined
// by per-node full-duplex links into a non-blocking crossbar, so a
// transfer from i to j crosses exactly node i's uplink and node j's
// downlink.
type Topology struct {
	Nodes     []NodeSpec
	Bandwidth float64 // per-link bandwidth, bytes/second
	Latency   float64 // one-way message latency, seconds
}

// Paper testbed constants: Gigabit Ethernet links (1 Gbit/s = 125 MB/s,
// ~50 microseconds one-way latency) and dual-CPU Xeon nodes.
const (
	GigabitBandwidth = 125e6  // bytes/second
	TenMbps          = 1.25e6 // bytes/second, the paper's shaped links
	DefaultLatency   = 50e-6  // seconds
)

// Testbed returns the paper's testbed with n dual-CPU nodes on Gigabit
// Ethernet.
func Testbed(n int) Topology {
	nodes := make([]NodeSpec, n)
	for i := range nodes {
		nodes[i] = NodeSpec{CPUs: 2, Speed: 1.0}
	}
	return Topology{Nodes: nodes, Bandwidth: GigabitBandwidth, Latency: DefaultLatency}
}

// Scenario is a resource-sharing configuration applied to a topology: a
// number of competing compute-intensive processes per node and per-node
// link bandwidth overrides (modelling the paper's iproute2 shaping).
type Scenario struct {
	Name          string
	LoadProcs     map[int]int     // node index -> competing compute processes
	LinkBandwidth map[int]float64 // node index -> override of both link directions, bytes/s
	// ExtraLatency adds per-message latency to every transfer crossing the
	// node's links, modelling the queueing delay of iproute2's token-bucket
	// shaping (a shaped link delays packets, it does not only slow them).
	ExtraLatency map[int]float64
	// Traffic, when set, injects background cross-traffic flows between
	// random node pairs (see CrossTraffic).
	Traffic *CrossTraffic
}

// ShapedLatency is the queueing delay added per message on a shaped link.
const ShapedLatency = 2.5e-4

// The paper's five resource-sharing scenarios (section 4.2) plus the
// dedicated baseline. They target node 0 / link 0 where a single resource
// is shared.

// Dedicated returns the unshared baseline scenario.
func Dedicated() Scenario { return Scenario{Name: "dedicated"} }

// CPUOneNode returns scenario 1: two competing compute-intensive processes
// on one node.
func CPUOneNode() Scenario {
	return Scenario{Name: "cpu-one-node", LoadProcs: map[int]int{0: 2}}
}

// CPUAllNodes returns scenario 2: two competing compute-intensive
// processes on each of n nodes.
func CPUAllNodes(n int) Scenario {
	l := make(map[int]int, n)
	for i := 0; i < n; i++ {
		l[i] = 2
	}
	return Scenario{Name: "cpu-all-nodes", LoadProcs: l}
}

// NetOneLink returns scenario 3: available bandwidth on one link reduced
// to 10 Mbps.
func NetOneLink() Scenario {
	return Scenario{
		Name:          "net-one-link",
		LinkBandwidth: map[int]float64{0: TenMbps},
		ExtraLatency:  map[int]float64{0: ShapedLatency},
	}
}

// NetAllLinks returns scenario 4: every link reduced to 10 Mbps.
func NetAllLinks(n int) Scenario {
	l := make(map[int]float64, n)
	x := make(map[int]float64, n)
	for i := 0; i < n; i++ {
		l[i] = TenMbps
		x[i] = ShapedLatency
	}
	return Scenario{Name: "net-all-links", LinkBandwidth: l, ExtraLatency: x}
}

// Combined returns scenario 5: competing processes on one node and reduced
// bandwidth on one link.
func Combined() Scenario {
	return Scenario{
		Name:          "combined",
		LoadProcs:     map[int]int{0: 2},
		LinkBandwidth: map[int]float64{0: TenMbps},
		ExtraLatency:  map[int]float64{0: ShapedLatency},
	}
}

// PaperScenarios returns the five sharing scenarios of the evaluation, in
// the paper's order, for an n-node cluster.
func PaperScenarios(n int) []Scenario {
	return []Scenario{CPUOneNode(), CPUAllNodes(n), NetOneLink(), NetAllLinks(n), Combined()}
}

// Cluster is a topology instantiated on a simulation engine with a
// scenario applied: per-node CPU groups, per-node duplex link resources,
// and competing daemon load processes already spawned.
type Cluster struct {
	Topo     Topology
	Scenario Scenario
	Engine   *sim.Engine
	cpus     []*sim.CPU
	up       []*sim.Resource   // node -> switch
	down     []*sim.Resource   // switch -> node
	paths    [][]*sim.Resource // paths[src] holds up[src], down[dst] at 2*dst, for Path
	worlds   int               // worlds launched, for deterministic world naming
	msgs     int64             // messages started, for causal-probe identity
}

// NextWorldID numbers the worlds co-scheduled on this cluster, starting
// at 1. Per-cluster (not global) numbering keeps process names — and
// everything derived from them, such as telemetry exports — identical
// across repeated runs in one process.
func (c *Cluster) NextWorldID() int {
	c.worlds++
	return c.worlds
}

// NextMsgID numbers the messages transferred on this cluster, starting
// at 1. Cluster-wide (not per-world) numbering keeps the ids unique when
// several worlds are co-scheduled and share one telemetry sink.
func (c *Cluster) NextMsgID() int64 {
	c.msgs++
	return c.msgs
}

// loadChunk is the compute granularity of competing load processes. Its
// value is irrelevant under the fluid processor-sharing model; it only
// bounds the event rate the daemons generate.
const loadChunk = 5.0

// Build instantiates topo under scenario on a fresh engine, without
// instrumentation.
func Build(topo Topology, sc Scenario) *Cluster { return BuildProbed(topo, sc, nil) }

// BuildProbed instantiates topo under scenario on a fresh engine with a
// telemetry sink attached: the sink becomes the engine's probe and
// additionally observes the scenario and contender lifecycle. A nil
// sink is identical to Build.
func BuildProbed(topo Topology, sc Scenario, sink telemetry.Sink) *Cluster {
	eng := sim.New()
	if sink != nil {
		eng.SetProbe(sink)
		sink.ScenarioStart(sc.Name, len(topo.Nodes))
	}
	c := &Cluster{Topo: topo, Scenario: sc, Engine: eng}
	for i, n := range topo.Nodes {
		bw := topo.Bandwidth
		if o, ok := sc.LinkBandwidth[i]; ok {
			bw = o
		}
		c.cpus = append(c.cpus, eng.NewCPU(fmt.Sprintf("cpu%d", i), n.CPUs, n.Speed))
		c.up = append(c.up, eng.NewResource(fmt.Sprintf("up%d", i), bw))
		c.down = append(c.down, eng.NewResource(fmt.Sprintf("down%d", i), bw))
	}
	n := len(topo.Nodes)
	flat := make([]*sim.Resource, 2*n*n)
	for src := 0; src < n; src++ {
		row := flat[2*n*src : 2*n*(src+1)]
		for dst := 0; dst < n; dst++ {
			row[2*dst], row[2*dst+1] = c.up[src], c.down[dst]
		}
		c.paths = append(c.paths, row)
	}
	// Spawn load daemons in node order: proc ids are assigned in spawn
	// order and same-time scheduling is id-ordered, so iterating the map
	// directly would let map order leak into the simulation.
	loadNodes := make([]int, 0, len(sc.LoadProcs))
	for node := range sc.LoadProcs {
		loadNodes = append(loadNodes, node)
	}
	sort.Ints(loadNodes)
	for _, node := range loadNodes {
		count := sc.LoadProcs[node]
		if node >= len(topo.Nodes) {
			panic(fmt.Sprintf("cluster: load procs on node %d of %d-node cluster", node, len(topo.Nodes)))
		}
		cpu := c.cpus[node]
		for k := 0; k < count; k++ {
			name := fmt.Sprintf("load%d.%d", node, k)
			if sink != nil {
				sink.ContenderStart(telemetry.ContenderLoad, node, name)
			}
			eng.Spawn(name, true, func(p *sim.Proc) {
				for {
					p.Compute(cpu, loadChunk)
				}
			})
		}
	}
	if t := sc.Traffic; t != nil && len(topo.Nodes) >= 2 {
		rng := t.Rand
		if rng == nil {
			rng = rand.New(rand.NewSource(t.Seed))
		}
		if sink != nil {
			sink.ContenderStart(telemetry.ContenderTraffic, -1, "crosstraffic")
		}
		eng.Spawn("crosstraffic", true, func(p *sim.Proc) {
			for {
				p.Sleep(expDraw(rng, t.MeanGap))
				src := rng.Intn(n)
				dst := rng.Intn(n - 1)
				if dst >= src {
					dst++
				}
				eng.StartFlow(c.Path(src, dst), expDraw(rng, t.MeanBytes), func() {})
			}
		})
	}
	return c
}

// expDraw samples an exponential distribution with the given mean.
func expDraw(rng *rand.Rand, mean float64) float64 {
	u := rng.Float64()
	if u <= 0 {
		u = 1e-12
	}
	return -mean * math.Log(u)
}

// Nodes returns the number of nodes.
func (c *Cluster) Nodes() int { return len(c.Topo.Nodes) }

// CPU returns the CPU group of node i.
func (c *Cluster) CPU(i int) *sim.CPU { return c.cpus[i] }

// Path returns the network resources a message from node src to node dst
// crosses: src's uplink and dst's downlink. Intra-node transfers cross
// nothing (modelled as latency only). The slice is shared by every
// message between the pair and must not be modified.
func (c *Cluster) Path(src, dst int) []*sim.Resource {
	if src == dst {
		return nil
	}
	return c.paths[src][2*dst : 2*dst+2 : 2*dst+2]
}

// Latency returns the base one-way message latency in seconds.
func (c *Cluster) Latency() float64 { return c.Topo.Latency }

// PathLatency returns the one-way latency between two nodes, including
// the queueing delay of any shaped link on the path.
func (c *Cluster) PathLatency(src, dst int) float64 {
	if src == dst {
		return 0
	}
	return c.Topo.Latency + c.Scenario.ExtraLatency[src] + c.Scenario.ExtraLatency[dst]
}

// ByName returns the scenario with the given name for an n-node cluster:
// "dedicated" or one of the five sharing scenarios.
func ByName(name string, n int) (Scenario, error) {
	for _, sc := range append([]Scenario{Dedicated()}, PaperScenarios(n)...) {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("cluster: %w %q (valid: %s)",
		ErrUnknownScenario, name, strings.Join(ScenarioNames(), ", "))
}

// ErrUnknownScenario reports a scenario name ByName does not know.
// Callers branch on it with errors.Is (the prediction service maps it
// to a 400); the full message enumerates the valid names.
var ErrUnknownScenario = errors.New("unknown scenario")

// ScenarioNames returns every name ByName accepts, sorted, so usage and
// error messages that enumerate them are byte-stable.
func ScenarioNames() []string {
	names := []string{Dedicated().Name}
	for _, sc := range PaperScenarios(2) {
		names = append(names, sc.Name)
	}
	sort.Strings(names)
	return names
}

// CrossTraffic describes background flows injected between random node
// pairs: the uncontrolled competing traffic of a real shared network, as
// opposed to the deterministic iproute2 shaping of the paper's scenarios.
// The generator is a daemon process that sleeps an exponentially
// distributed gap, then starts an exponentially sized flow between a
// uniformly random node pair. Everything derives from Seed, so runs stay
// reproducible. The offered load (MeanBytes/MeanGap) must stay below the
// link bandwidth, or background flows accumulate without bound and
// starve the simulation.
type CrossTraffic struct {
	MeanGap   float64 // mean gap between flows, seconds
	MeanBytes float64 // mean flow size, bytes
	Seed      int64
	// Rand, when non-nil, supplies the generator for gap, size and node
	// draws instead of one freshly seeded from Seed. Injecting the
	// generator lets callers share one stream across scenarios or
	// substitute a recorded sequence; it must be used by nothing else
	// while the simulation runs.
	Rand *rand.Rand `json:"-"`
}

// WithCrossTraffic returns a copy of sc with background traffic added.
// The derived scenario's name gains a "+traffic" suffix that ByName does
// not resolve: traffic scenarios are built, not looked up. A seed-derived
// traffic scenario (Rand nil) is still content-addressable and therefore
// usable in campaign grids; see CanonScenario.
func WithCrossTraffic(sc Scenario, t CrossTraffic) Scenario {
	sc.Name = sc.Name + "+traffic"
	sc.Traffic = &t
	return sc
}
