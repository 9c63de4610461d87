// Command skel runs the paper's skeleton construction pipeline, one
// subcommand per step:
//
//	skel trace -bench CG -class B -ranks 4 -o cg.trace.json
//	skel stat -trace cg.trace.json -q 50 -dumpsig
//	skel gen -trace cg.trace.json -time 5 -o cg.skel.json [-c cg_skel.c] [-gosrc cg_skel.go] [-sig cg.sig.json]
//	skel gen -static internal/nas -app CG -n 8 -class A -k 10 -o cg.skel.json
//	skel run -skel cg.skel.json -scenario combined
//	skel run -bench CG -class B -ranks 4 -trace cg.json -metrics -json
//
// trace runs a NAS benchmark model on the simulated dedicated testbed
// with the profiling recorder attached and writes its execution trace.
//
// stat analyses a trace: time breakdown per MPI operation, a text
// timeline of per-rank activity, and (with -q or -dumpsig) the
// compressed execution signature with the smallest-good-skeleton bound.
//
// gen compresses a trace into an execution signature (clustering plus
// loop detection, with the similarity threshold searched for
// compression ratio Q = K/2) and scales it down by K. The skeleton is
// written as an executable JSON program and optionally as C/MPI or Go
// source. With -static the trace is not needed: the signature is
// synthesized from the MPI program's source (symbolic execution of its
// constructor and per-rank body), instantiated at -n ranks and -class.
// Compute durations in a static skeleton are model estimates; nothing
// measures or corrects them.
//
// run executes a skeleton or a NAS benchmark under a named
// resource-sharing scenario and prints the execution time. Running a
// skeleton under each candidate scenario and multiplying by the
// measured scaling ratio is the paper's prediction procedure. With
// -trace, -metrics, -timeline or -json the run is instrumented: a
// telemetry collector observes the simulator and the MPI runtime, and
// the requested views are emitted after the run. Without any of them
// the run pays no instrumentation cost.
//
// Errors exit 1 with the subcommand as prefix ("skel gen: ..."); flag
// errors, and a missing or unknown subcommand, exit 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"perfskel"
	"perfskel/internal/signature"
	"perfskel/internal/telemetry"
)

// commands lists the subcommands in pipeline order.
var commands = []struct {
	name, doc string
	main      func(args []string)
}{
	{"trace", "run a NAS benchmark on the dedicated testbed and write its trace", traceMain},
	{"stat", "analyse a trace: operation breakdown, timeline, signature", statMain},
	{"gen", "construct a skeleton from a trace or from source", genMain},
	{"run", "run a skeleton or a benchmark under a sharing scenario", runMain},
}

// name is the running subcommand ("skel trace"), which prefixes errors
// and flag usage.
var name = "skel"

func main() {
	if len(os.Args) > 1 {
		for _, c := range commands {
			if c.name == os.Args[1] {
				name += " " + c.name
				c.main(os.Args[2:])
				return
			}
		}
		fmt.Fprintf(os.Stderr, "skel: unknown command %q\n", os.Args[1])
	}
	fmt.Fprintln(os.Stderr, "usage: skel <command> [flags]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-6s %s\n", c.name, c.doc)
	}
	fmt.Fprintln(os.Stderr, "\nRun 'skel <command> -h' for its flags.")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, name+":", err)
	os.Exit(1)
}

// nasTestbed returns NAS benchmark bench at class and an n-node testbed
// under sc to run it on.
func nasTestbed(bench, class string, n int, sc perfskel.Scenario) (perfskel.App, *perfskel.Env) {
	if n < 1 {
		fail(fmt.Errorf("-ranks must be at least 1, got %d", n))
	}
	app, err := perfskel.NASApp(bench, perfskel.Class(class))
	if err != nil {
		fail(err)
	}
	return app, perfskel.NewTestbed(n, sc)
}

func traceMain(args []string) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	bench := fs.String("bench", "CG", "benchmark: BT, CG, EP, FT, IS, LU, MG or SP")
	class := fs.String("class", "B", "problem class: S, W, A or B")
	ranks := fs.Int("ranks", 4, "number of ranks / nodes")
	out := fs.String("o", "", "output trace file (default <bench>.trace.json)")
	fs.Parse(args)

	if *out == "" {
		*out = fmt.Sprintf("%s.trace.json", *bench)
	}
	app, env := nasTestbed(*bench, *class, *ranks, perfskel.Dedicated())
	tr, dur, err := env.Trace(*ranks, app)
	if err != nil {
		fail(err)
	}
	if err := tr.Save(*out); err != nil {
		fail(err)
	}
	st := tr.Stats()
	fmt.Printf("%s class %s on %d ranks: %.2f s dedicated, %d events (%.1f%% MPI)\n",
		*bench, *class, *ranks, dur, tr.Len(), 100*st.MPIFrac)
	fmt.Printf("trace written to %s\n", *out)
}

func statMain(args []string) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	tracePath := fs.String("trace", "", "execution trace to analyse (required)")
	width := fs.Int("width", 72, "timeline width in columns")
	q := fs.Float64("q", 0, "also compress to a signature with this target ratio")
	dumpSig := fs.Bool("dumpsig", false, "print the signature's loop structure")
	fs.Parse(args)

	if *tracePath == "" {
		fail(fmt.Errorf("-trace is required"))
	}
	tr, err := perfskel.LoadTrace(*tracePath)
	if err != nil {
		fail(err)
	}
	fmt.Print(tr.Summary())
	fmt.Println()
	fmt.Print(tr.Timeline(*width))

	if *q > 0 || *dumpSig {
		sig, err := signature.Build(tr, signature.Options{TargetRatio: *q})
		if err != nil {
			fail(err)
		}
		fmt.Printf("\nsignature: %d events -> %d leaves (ratio %.1f at threshold %.3f, target met: %v)\n",
			tr.Len(), sig.Len(), sig.Ratio, sig.Threshold, sig.TargetMet)
		mg := perfskel.MinGoodSkeletonTime(sig)
		fmt.Printf("smallest good skeleton: %.3f s (largest useful scaling factor K=%.0f)\n",
			mg, tr.AppTime/mg)
		if *dumpSig {
			fmt.Println()
			fmt.Print(sig.String())
		}
	}
}

func genMain(args []string) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	tracePath := fs.String("trace", "", "input execution trace")
	staticPkg := fs.String("static", "", "synthesize the signature statically from this source package (directory or module-local import path) instead of a trace")
	appName := fs.String("app", "", "program to synthesize with -static (registry name or constructor)")
	nranks := fs.Int("n", 0, "rank count to instantiate at with -static")
	class := fs.String("class", "S", "problem-size class to instantiate at with -static")
	target := fs.Float64("time", 0, "intended skeleton execution time in seconds")
	k := fs.Int("k", 0, "explicit scaling factor K (alternative to -time)")
	out := fs.String("o", "skeleton.json", "output skeleton program")
	cOut := fs.String("c", "", "also emit C/MPI source to this file")
	goOut := fs.String("gosrc", "", "also emit Go source to this file")
	sigOut := fs.String("sig", "", "also write the execution signature to this file (for skelvet -verify-signature)")
	fs.Parse(args)

	if (*tracePath == "") == (*staticPkg == "") {
		fail(fmt.Errorf("exactly one of -trace or -static is required"))
	}
	if (*target <= 0) == (*k <= 0) {
		fail(fmt.Errorf("exactly one of -time or -k is required"))
	}
	var opts []perfskel.ConstructOption
	if *k > 0 {
		opts = append(opts, perfskel.WithK(*k))
	} else {
		opts = append(opts, perfskel.WithTargetTime(*target))
	}

	var tr *perfskel.Trace
	if *staticPkg != "" {
		if *appName == "" || *nranks < 1 {
			fail(fmt.Errorf("-static needs -app and -n"))
		}
		opts = append(opts,
			perfskel.WithStaticSource(*staticPkg),
			perfskel.WithStaticApp(*appName, *nranks, *class))
	} else {
		var err error
		tr, err = perfskel.LoadTrace(*tracePath)
		if err != nil {
			fail(err)
		}
	}
	prog, sig, err := perfskel.Construct(tr, opts...)
	if err != nil {
		fail(err)
	}
	if err := prog.Save(*out); err != nil {
		fail(err)
	}
	if tr != nil {
		fmt.Printf("trace: %.2f s application, %d events\n", tr.AppTime, tr.Len())
		fmt.Printf("signature: ratio %.1f at similarity threshold %.3f (target Q=%.1f met: %v)\n",
			sig.Ratio, sig.Threshold, float64(prog.K)/2, sig.TargetMet)
	} else {
		fmt.Printf("static: %s class %s on %d ranks, %.2f s estimated, %d ops\n",
			*appName, *class, *nranks, sig.AppTime, sig.TraceEvents)
		fmt.Printf("note: compute durations are model estimates, not measurements\n")
	}
	fmt.Printf("skeleton: K=%d, intended %.2f s, written to %s\n", prog.K, prog.TargetTime, *out)
	fmt.Printf("smallest good skeleton for this application: %.2f s\n", prog.MinGoodTime)
	if !prog.Good {
		fmt.Printf("WARNING: requested skeleton is below the smallest good size; prediction accuracy may suffer\n")
	}
	if *cOut != "" {
		if err := os.WriteFile(*cOut, []byte(perfskel.CSource(prog)), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("C source written to %s\n", *cOut)
	}
	if *goOut != "" {
		if err := os.WriteFile(*goOut, []byte(perfskel.GoSource(prog)), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("Go source written to %s\n", *goOut)
	}
	if *sigOut != "" {
		if err := sig.Save(*sigOut); err != nil {
			fail(err)
		}
		fmt.Printf("signature written to %s\n", *sigOut)
	}
}

// result is the machine-readable form of one run, printed by run -json.
type result struct {
	Mode      string              `json:"mode"` // "skeleton" or "benchmark"
	Bench     string              `json:"bench,omitempty"`
	Class     string              `json:"class,omitempty"`
	Skeleton  string              `json:"skeleton,omitempty"`
	K         int                 `json:"k,omitempty"`
	Scenario  string              `json:"scenario"`
	Ranks     int                 `json:"ranks"`
	Duration  float64             `json:"duration_s"`
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

func runMain(args []string) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	skelPath := fs.String("skel", "", "skeleton program to run (from skel gen)")
	bench := fs.String("bench", "", "benchmark to run instead of a skeleton")
	class := fs.String("class", "B", "problem class for -bench")
	scen := fs.String("scenario", "dedicated",
		"scenario: dedicated, cpu-one-node, cpu-all-nodes, net-one-link, net-all-links, combined")
	ranks := fs.Int("ranks", 4, "number of ranks / nodes (ignored for -skel)")
	jsonOut := fs.Bool("json", false, "print the result as JSON (with a telemetry summary)")
	metrics := fs.Bool("metrics", false, "print the telemetry metrics registry after the run")
	timeline := fs.Bool("timeline", false, "print a per-rank activity timeline after the run")
	tracePath := fs.String("trace", "", "write a Chrome trace-event (Perfetto) JSON file")
	fs.Parse(args)

	if (*skelPath == "") == (*bench == "") {
		fail(fmt.Errorf("exactly one of -skel or -bench is required"))
	}

	n := *ranks
	var prog *perfskel.Skeleton
	var app perfskel.App
	var err error
	if *skelPath != "" {
		prog, err = perfskel.LoadSkeleton(*skelPath)
		if err != nil {
			fail(err)
		}
		n = prog.NRanks
	}
	sc, err := perfskel.ScenarioByName(*scen, n)
	if err != nil {
		fail(err)
	}
	var env *perfskel.Env
	if prog != nil {
		env = perfskel.NewTestbed(n, sc)
	} else {
		app, env = nasTestbed(*bench, *class, n, sc)
	}
	var col *perfskel.Telemetry
	if *jsonOut || *metrics || *timeline || *tracePath != "" {
		col = perfskel.NewTelemetry()
		env.Observe = col
	}

	res := result{Scenario: env.Sc.Name, Ranks: n}
	if prog != nil {
		res.Mode, res.Skeleton, res.K = "skeleton", *skelPath, prog.K
		res.Duration, err = env.RunSkeleton(prog)
	} else {
		res.Mode, res.Bench, res.Class = "benchmark", *bench, *class
		res.Duration, err = env.Run(n, app)
	}
	if err != nil {
		fail(err)
	}
	if !*jsonOut {
		if prog != nil {
			fmt.Printf("skeleton (K=%d) under %s: %.4f s\n", prog.K, res.Scenario, res.Duration)
			fmt.Printf("predicted application time = %.4f s x measured scaling ratio\n", res.Duration)
		} else {
			fmt.Printf("%s class %s on %d ranks under %s: %.4f s\n", *bench, *class, n, res.Scenario, res.Duration)
		}
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		if err := col.WritePerfetto(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		if !*jsonOut {
			fmt.Printf("trace written to %s\n", *tracePath)
		}
	}
	if *metrics {
		fmt.Print(col.Metrics.Render())
	}
	if *timeline {
		fmt.Print(col.RankTimeline(100))
	}
	if *jsonOut {
		snap := col.Metrics.Snapshot()
		res.Telemetry = &snap
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fail(err)
		}
	}
}
