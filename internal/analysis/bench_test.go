package analysis

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"strings"
	"testing"

	"perfskel/internal/analysis/commgraph"
	"perfskel/internal/analysis/dataflow"
)

// BenchmarkAnalysisLoopFree and BenchmarkAnalysisSymexec compare the
// extraction pipeline's straight-line path against the
// symbolic-execution path: the same communication pattern written as
// unrolled statements versus as counted loops the extractor must prove
// environment-invariant and fold. scripts/bench.sh runs them with the
// cold-load and orderflow benchmarks below and writes the medians of all
// five to BENCH_analysis.json.

// benchRing emits a shifted-ring exchange body, either unrolled n times
// (loop-free: no invariance proof needed) or as a single counted loop
// (symexec: the extractor runs two iterations symbolically and folds).
func benchRing(n int, loop bool) string {
	var b strings.Builder
	b.WriteString(`package main

import "perfskel"

func main() {
	env := perfskel.NewTestbed(4, perfskel.Dedicated())
	if _, err := env.Run(4, func(c *perfskel.Comm) {
		r, n := c.Rank(), c.Size()
`)
	body := "\t\tc.Sendrecv((r+1)%n, 4096, (r+n-1)%n, 1)\n\t\tc.Allreduce(8)\n"
	if loop {
		fmt.Fprintf(&b, "\t\tfor i := 0; i < %d; i++ {\n", n)
		b.WriteString(strings.ReplaceAll(body, "\t\t", "\t\t\t"))
		b.WriteString("\t\t\t_ = i\n\t\t}\n")
	} else {
		for i := 0; i < n; i++ {
			b.WriteString(body)
		}
	}
	b.WriteString(`	}); err != nil {
		panic(err)
	}
}
`)
	return b.String()
}

func benchMachines(b *testing.B, src string) {
	b.Helper()
	l := sharedBenchLoader(b)
	pkg, err := l.LoadSource("bench.go", src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machines := commgraph.Extract(commgraph.Source{Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info})
		if len(machines) != 1 {
			b.Fatalf("extracted %d machines, want 1", len(machines))
		}
		res := commgraph.Match(&machines[0], commgraph.Options{})
		if len(res.Findings) != 0 {
			b.Fatalf("unexpected findings: %v", res.Findings)
		}
	}
}

func sharedBenchLoader(b *testing.B) *Loader {
	b.Helper()
	if sharedLoader == nil {
		l, err := NewLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

// BenchmarkAnalysisLoadCold is the cold static-analysis load every
// static consumer pays once per process (campaign setup, skelvet, the
// service's static requests): a fresh loader parses and type-checks
// the NAS models package, its module imports and the standard-library
// packages they reach.
func BenchmarkAnalysisLoadCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l, err := NewLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.Load(l.ModulePath() + "/internal/nas"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalysisLoopFree(b *testing.B) {
	benchMachines(b, benchRing(200, false))
}

func BenchmarkAnalysisSymexec(b *testing.B) {
	benchMachines(b, benchRing(200, true))
}

// BenchmarkOrderflowSummaries measures interprocedural summary
// construction from a cold cache: every iteration analyzes the
// telemetry package with a fresh Summaries, so each callee summary in
// its call graph (sortedKeys, the merge helpers, stats) is recomputed.
func BenchmarkOrderflowSummaries(b *testing.B) {
	l := sharedBenchLoader(b)
	pkg, err := l.Load(l.ModulePath() + "/internal/telemetry")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		findings := 0
		a := &dataflow.Analysis{
			Fset:      pkg.Fset,
			Info:      pkg.Info,
			Pkg:       pkg.Types,
			Summaries: dataflow.NewSummaries(l.funcSource),
			Report:    func(dataflow.Finding) { findings++ },
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					a.Func(fd)
				}
			}
		}
		if findings != 0 {
			b.Fatalf("telemetry package is expected clean, got %d findings", findings)
		}
	}
}

// BenchmarkOrderflowCorpus is the cost of the `skelvet -self` gate on a
// fixed corpus: the orderflow rule over frozen copies of the telemetry
// and stats packages in testdata/selfmodule (packages pre-loaded; the
// loader's shared summary cache is warm after the first iteration, as
// it is across packages in a real self run). The copies import only
// the standard library, and the module's own source can change without
// moving this benchmark.
func BenchmarkOrderflowCorpus(b *testing.B) {
	l := sharedBenchLoader(b)
	var pkgs []*Package
	for _, name := range []string{"telemetry", "stats"} {
		pkg, err := l.LoadDir(filepath.Join("testdata", "selfmodule", name))
		if err != nil {
			b.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkg := range pkgs {
			for _, d := range Check(pkg, []*Analyzer{OrderFlow}) {
				b.Fatalf("corpus is expected clean, got: %s", d)
			}
		}
	}
}
