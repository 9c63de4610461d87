// Command skelbench is perfskel's end-to-end benchmark. It drives three
// workloads through the repository's public entry points — the campaign
// engine (campaign-sweep), the real skeletond binary over loopback HTTP
// (serve-mix) and the perfskel library facade (rank-scale) — and prints
// one JSON result line.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	skelbench -workload campaign-sweep|serve-mix|rank-scale -seed N
//	          -seconds S -trace 0|1 [-skeletond PATH]
//	skelbench -regen    # rewrite testdata/expected.json
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// the run replays the workload's distinct cells stage by stage with
// spans around every layer call and reports per-layer metrics. Both
// modes print a report line (all metrics with sample counts, the
// environment and the input sizes) before the result line. See
// README.md for the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the parsed command-line settings every workload sees.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	skeletond string
}

// Fixed load settings: one client process using at most two threads or
// connections, matching the two-CPU machines the benchmark is sized for.
const (
	workers     = 2 // campaign Workers and skeletond -workers
	connections = 2 // serve-mix closed-loop client connections
)

// run is one workload's outcome before printing.
type run struct {
	tally
	metrics map[string]metric
	// samples holds each metric's sample count for the report line.
	samples map[string]int
	// info carries workload-specific facts for the report line (input
	// sizes, stream shape, single-workload metrics the result omits).
	info map[string]any
}

func newRun() *run {
	return &run{metrics: map[string]metric{}, samples: map[string]int{}, info: map[string]any{}}
}

func (r *run) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// endToEnd lists the metrics the result line carries with -trace 0.
var endToEnd = []string{"setup_s", "predictions_per_s", "peak_rss_mb", "prediction_error_pct"}

// perLayer lists the per-layer metrics with their units. A workload that
// does not exercise a layer reports 0 for its metrics.
var perLayer = []struct{ name, unit string }{
	{"sim.ns_per_event", "ns"}, {"sim.ns_per_event.p16", "ns"}, {"sim.ns_per_event.p32", "ns"}, {"sim.ns_per_event.p64", "ns"},
	{"sim.events", "count"}, {"sim.procs", "count"},
	{"mpi.app_run_s", "s"}, {"mpi.allocs_per_event", "count"}, {"mpi.alloc_bytes_per_event", "B"},
	{"trace.events", "count"}, {"signature.ratio_median", "ratio"},
	{"skeleton.build_s", "s"}, {"skeleton.build_ns_per_trace_event", "ns"}, {"skeleton.run_s", "s"}, {"skeleton.events", "count"},
	{"analysis.load_s", "s"}, {"staticsig.extract_s", "s"}, {"staticsig.instantiate_s", "s"}, {"staticsig.error_pct", "%"},
	{"campaign.sims", "count"}, {"campaign.hits", "count"}, {"campaign.misses", "count"}, {"campaign.hit_ratio", "ratio"},
	{"service.cold_requests", "count"}, {"service.warm_requests", "count"}, {"service.cache_hit_ratio", "ratio"},
	{"service.rejected", "count"}, {"service.server_mean_ms", "ms"}, {"service.client_overhead_ms", "ms"},
	{"service.cold_p50_ms", "ms"}, {"service.cold_p95_ms", "ms"}, {"service.warm_p50_ms", "ms"},
	{"runtime.gc_cycles", "count"}, {"runtime.alloc_mb", "MB"},
	{"bench.accounted_pct", "%"}, {"bench.trace_overhead_pct", "%"}, {"bench.fail_ratio", "ratio"},
}

var workloads = map[string]func(options) (*run, error){
	"campaign-sweep": runSweep,
	"serve-mix":      runServe,
	"rank-scale":     runRankScale,
}

func main() {
	var o options
	var traceFlag int
	regen := flag.Bool("regen", false, "recompute testdata/expected.json from the current program and exit")
	flag.StringVar(&o.workload, "workload", "", "workload: campaign-sweep, serve-mix or rank-scale")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement budget in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	flag.StringVar(&o.skeletond, "skeletond", ".bench_build/skeletond", "skeletond binary (serve-mix)")
	flag.Parse()
	o.trace = traceFlag == 1

	if *regen {
		if err := regenerate(o); err != nil {
			fmt.Fprintln(os.Stderr, "skelbench:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := workloads[o.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "skelbench: usage: -workload %s -seed N -seconds S -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "skelbench: run from the repository root (no go.mod here)")
		os.Exit(2)
	}
	r, err := fn(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skelbench:", err)
		os.Exit(1)
	}
	if err := emit(o, r); err != nil {
		fmt.Fprintln(os.Stderr, "skelbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// emit prints the report line and then the result line. Every metric the
// mode promises must be present; a missing one is a benchmark bug.
func emit(o options, r *run) error {
	names := endToEnd
	if o.trace {
		names = nil
		r.set("bench.fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", r.attempted)
		for _, m := range perLayer {
			names = append(names, m.name)
			if _, ok := r.metrics[m.name]; !ok {
				r.set(m.name, 0, m.unit, 0)
			}
		}
	}
	res := result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", o.workload, n)
		}
		res.Metrics[n] = m
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", o.workload)
	}
	type reported struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		N     int     `json:"n"`
	}
	all := map[string]reported{
		"fail_ratio": {float64(r.failed) / float64(r.attempted), "ratio", r.attempted},
	}
	for n, m := range r.metrics {
		all[n] = reported{m.Value, m.Unit, r.samples[n]}
	}
	report := map[string]any{
		"workload": o.workload,
		"env": map[string]any{
			"nproc":       runtime.NumCPU(),
			"gomaxprocs":  runtime.GOMAXPROCS(0),
			"workers":     workers,
			"connections": connections,
			"go":          runtime.Version(),
			"seed":        o.seed,
			"seconds":     o.seconds,
			"trace":       o.trace,
		},
		"metrics":  all,
		"info":     r.info,
		"problems": r.problems,
	}
	line, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Printf("report %s\n", line)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
