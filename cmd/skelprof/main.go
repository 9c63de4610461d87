// Command skelprof runs the paper's full prediction procedure for one
// benchmark and one scenario, with telemetry on, and reports where the
// prediction error comes from: it traces the application on the
// dedicated testbed, constructs the performance skeleton, measures the
// scaling ratio, then executes both application and skeleton under the
// target scenario and aligns their phase profiles. The report attributes
// the divergence to compute, communication and blocking per phase
// region — the diagnostic view behind the paper's accuracy tables.
//
// The prediction is the campaign engine's Predict. The two scenario
// runs whose telemetry is profiled go through the same engine, so the
// skeleton's is the run Predict already made and nothing is simulated
// twice.
//
// Usage:
//
//	skelprof -bench CG -class B -ranks 4 -scenario combined
//	skelprof -bench MG -class A -ranks 8 -scenario net-one-link -k 16 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"perfskel/internal/campaign"
	"perfskel/internal/cluster"
	"perfskel/internal/nas"
	"perfskel/internal/predict"
	"perfskel/internal/telemetry"
	"perfskel/internal/telemetry/critpath"
)

// report is the machine-readable form of one skelprof run.
type report struct {
	Bench          string                 `json:"bench"`
	Class          string                 `json:"class"`
	Ranks          int                    `json:"ranks"`
	K              int                    `json:"k"`
	Scenario       string                 `json:"scenario"`
	AppDedicated   float64                `json:"app_dedicated_s"`
	SkelDedicated  float64                `json:"skel_dedicated_s"`
	Diff           *telemetry.DiffReport  `json:"diff"`
	App            *telemetry.Profile     `json:"app_profile"`
	Skel           *telemetry.Profile     `json:"skel_profile"`
	CritApp        *critpath.Analysis     `json:"critpath_app,omitempty"`
	CritSkel       *critpath.Analysis     `json:"critpath_skel,omitempty"`
	PathDivergence *float64               `json:"path_divergence,omitempty"`
	WhatIf         []critpath.Sensitivity `json:"whatif,omitempty"`
}

func main() {
	bench := flag.String("bench", "CG", "benchmark to profile")
	class := flag.String("class", "B", "problem class")
	ranks := flag.Int("ranks", 4, "number of ranks / nodes")
	scen := flag.String("scenario", "combined",
		"target scenario the prediction is evaluated under")
	k := flag.Int("k", 8, "skeleton scaling factor K")
	buckets := flag.Int("buckets", 0, "phase regions in the diff (0 = auto)")
	jsonOut := flag.Bool("json", false, "print the full report as JSON")
	traceApp := flag.String("trace-app", "", "write the application run's Perfetto trace")
	traceSkel := flag.String("trace-skel", "", "write the skeleton run's Perfetto trace")
	critPath := flag.Bool("critpath", false,
		"add a causal critical-path analysis of both scenario runs")
	whatIf := flag.String("whatif", "",
		"comma-separated what-if selectors class[@factor] applied to the application's\n"+
			"scenario run (requires -critpath; empty with -critpath runs a default sweep)")
	top := flag.Int("top", 20, "rows per critical-path table")
	flag.Parse()

	if flag.NArg() > 0 {
		usageFail("unexpected argument %q", flag.Arg(0))
	}
	if *whatIf != "" && !*critPath {
		usageFail("-whatif requires -critpath")
	}
	if *top < 1 {
		usageFail("-top must be at least 1 (got %d)", *top)
	}
	var specs []critpath.WhatIfSpec
	for _, s := range strings.Split(*whatIf, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		spec, err := critpath.ParseSpec(s)
		if err != nil {
			usageFail("bad -whatif selector: %v", err)
		}
		specs = append(specs, spec)
	}

	app, err := campaign.NASApp(*bench, nas.Class(*class))
	if err != nil {
		fail(err)
	}
	n := *ranks
	sc, err := cluster.ByName(*scen, n)
	if err != nil {
		fail(err)
	}

	eng := campaign.New(campaign.Config{Telemetry: true})
	cell := campaign.Cell{App: app, NRanks: n, Scenario: sc, K: *k}

	// Steps 1–2: the prediction — dedicated application run (the
	// skeleton's trace source), skeleton construction and dedicated
	// skeleton run, whose quotient is the scaling ratio.
	pred, err := eng.Predict(cell)
	if err != nil {
		fail(err)
	}
	ratio := predict.Ratio(pred.AppDedicated, pred.SkelDedicated)

	// Step 3: run application and skeleton under the target scenario; the
	// engine attaches a fresh collector to each cell.
	scenApp := cell
	scenApp.K = 0
	appRes, err := eng.Run(scenApp)
	if err != nil {
		fail(err)
	}
	skelRes, err := eng.Run(cell)
	if err != nil {
		fail(err)
	}

	// Optional step: causal critical-path analysis of both scenario runs,
	// the path-divergence score, and the what-if sensitivity table (the
	// selectors apply to the application's run).
	var appAn, skelAn *critpath.Analysis
	var sens []critpath.Sensitivity
	if *critPath {
		appG, err := critpath.Build(appRes.Telemetry)
		if err != nil {
			fail(err)
		}
		skelG, err := critpath.Build(skelRes.Telemetry)
		if err != nil {
			fail(err)
		}
		appAn, skelAn = appG.Analyze(), skelG.Analyze()
		if len(specs) == 0 {
			specs = appG.DefaultSpecs(0.5)
		}
		sens = appG.Sensitivities(specs)
	}
	writeTrace(*traceApp, appRes.Telemetry, appAn)
	writeTrace(*traceSkel, skelRes.Telemetry, skelAn)

	// Step 4: align the phase profiles and attribute the error.
	appProf, skelProf := appRes.Telemetry.Profile(), skelRes.Telemetry.Profile()
	diff := telemetry.Diff(appProf, skelProf, ratio, *buckets)

	if *jsonOut {
		r := report{
			Bench: *bench, Class: *class, Ranks: n, K: pred.K, Scenario: sc.Name,
			AppDedicated: pred.AppDedicated, SkelDedicated: pred.SkelDedicated,
			Diff: diff, App: appProf, Skel: skelProf,
			CritApp: appAn, CritSkel: skelAn, WhatIf: sens,
		}
		if appAn != nil {
			d := predict.PathDivergence(appAn, skelAn)
			r.PathDivergence = &d
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fail(err)
		}
		return
	}
	fmt.Printf("%s class %s on %d ranks, skeleton K=%d, scenario %s\n",
		*bench, *class, n, pred.K, sc.Name)
	fmt.Printf("dedicated: application %.4f s, skeleton %.4f s\n\n", pred.AppDedicated, pred.SkelDedicated)
	fmt.Print(diff.Render())
	if appAn != nil {
		fmt.Printf("\n== application critical path (scenario %s) ==\n", sc.Name)
		fmt.Print(appAn.Render(*top))
		fmt.Printf("\n== skeleton critical path (scenario %s) ==\n", sc.Name)
		fmt.Print(skelAn.Render(*top))
		fmt.Printf("\npath divergence (0 aligned .. 1 disjoint): %.3f\n\n",
			predict.PathDivergence(appAn, skelAn))
		fmt.Print(critpath.RenderSensitivities(sens))
	}
}

// writeTrace dumps a collector's Perfetto trace to path, when set. With
// a critical-path analysis at hand the trace marks path spans with the
// "critical" category so the viewer can highlight them.
func writeTrace(path string, col *telemetry.Collector, an *critpath.Analysis) {
	if path == "" {
		return
	}
	if col == nil {
		fail(fmt.Errorf("no telemetry collected for %s", path))
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	var werr error
	if an != nil {
		werr = col.WritePerfettoCritical(f, an.CriticalMask(col.Spans()))
	} else {
		werr = col.WritePerfetto(f)
	}
	if werr != nil {
		f.Close()
		fail(werr)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "skelprof:", err)
	os.Exit(1)
}

// usageFail reports a command-line usage error — an invalid flag
// combination or a malformed selector — and exits with status 2,
// distinguishing operator mistakes (2) from run failures (1).
func usageFail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "skelprof: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run 'skelprof -h' for usage")
	os.Exit(2)
}
