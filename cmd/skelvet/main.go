// Command skelvet runs perfskel's MPI-aware static analysis over module
// packages or individual Go source files (such as generated skeleton
// programs).
//
// Usage:
//
//	skelvet [flags] [target ...]
//
// Each target is a package directory, a single .go file, or the literal
// "./..." for every package in the module (the default). Targets are
// parsed and fully type-checked against the module's real API before
// the rules run, so a program that merely formats cleanly but would not
// compile is already a finding.
//
// Exit status is consistent across every mode:
//
//	0  clean — no findings, no divergence
//	1  findings reported, or static/trace divergence (-static-diff)
//	2  usage error or load failure
//
// Flags:
//
//	-self                 self-verification: run every rule over every
//	                      package of the enclosing module and report a
//	                      summary; composes with -json/-sarif
//	-rules r1,r2          run only the listed rules (default: all)
//	-list                 print the available rules and exit
//	-json                 print findings as a JSON array instead of text
//	-sarif                print findings as a SARIF 2.1.0 log instead of text
//	-commgraph            dump the extracted communication machines and exit
//	-verify-signature f   verify each .go target against the execution
//	                      signature stored in f (JSON, signature.Save)
//	-K n                  scaling factor for -verify-signature (default:
//	                      parsed from the target's generated header)
//	-static-diff          cross-validate static signature synthesis
//	                      against the trace pipeline; targets are NAS
//	                      model names (default: all paper benchmarks),
//	                      instantiated at -n ranks and class -class
//	-class c              problem-size class for -static-diff (default S)
//	-n p                  rank count for -static-diff (default 4)
//	-v                    also print per-target progress
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"perfskel/internal/analysis"
	"perfskel/internal/analysis/commgraph"
	"perfskel/internal/analysis/staticsig"
	"perfskel/internal/signature"
	"perfskel/internal/skeleton"
)

func main() {
	self := flag.Bool("self", false, "self-verification: check every package of the enclosing module")
	rules := flag.String("rules", "", "comma-separated rule ids to run (default: all)")
	list := flag.Bool("list", false, "list available rules and exit")
	jsonOut := flag.Bool("json", false, "print findings as a JSON array")
	sarifOut := flag.Bool("sarif", false, "print findings as a SARIF 2.1.0 log")
	graphOut := flag.Bool("commgraph", false, "dump extracted communication machines and exit")
	verifySig := flag.String("verify-signature", "", "verify .go targets against the signature JSON file")
	kFlag := flag.Int("K", 0, "scaling factor for -verify-signature (default: parse the generated header)")
	staticDiff := flag.Bool("static-diff", false, "cross-validate static signature synthesis against the trace pipeline (targets: NAS model names)")
	sdClass := flag.String("class", "S", "problem-size class for -static-diff")
	sdRanks := flag.Int("n", 4, "rank count for -static-diff")
	verbose := flag.Bool("v", false, "print per-target progress")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: skelvet [flags] [package-dir | file.go | ./...] ...\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nexit status:\n")
		fmt.Fprintf(os.Stderr, "  0  clean: no findings, no divergence\n")
		fmt.Fprintf(os.Stderr, "  1  findings reported, or static/trace divergence\n")
		fmt.Fprintf(os.Stderr, "  2  usage error or load failure\n")
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-26s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "skelvet: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}

	analyzers := analysis.All()
	if *rules != "" {
		analyzers = nil
		for _, name := range strings.Split(*rules, ",") {
			name = strings.TrimSpace(name)
			a := analysis.ByName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "skelvet: unknown rule %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	root := loader.ModuleRoot()

	if *staticDiff {
		if *jsonOut || *sarifOut || *self || *graphOut || *verifySig != "" {
			fmt.Fprintln(os.Stderr, "skelvet: -static-diff does not compose with other modes")
			os.Exit(2)
		}
		if *sdRanks < 2 {
			fmt.Fprintln(os.Stderr, "skelvet: -static-diff needs -n >= 2")
			os.Exit(2)
		}
		diverged, err := runStaticDiff(loader, flag.Args(), *sdClass, *sdRanks)
		if err != nil {
			fatal(err)
		}
		if diverged > 0 {
			os.Exit(1)
		}
		return
	}

	args := flag.Args()
	if *self {
		if len(args) > 0 {
			fmt.Fprintln(os.Stderr, "skelvet: -self takes no targets; it always checks the whole module")
			os.Exit(2)
		}
		args = []string{"./..."}
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}

	var pkgs []*analysis.Package
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "...":
			paths, err := loader.ModulePackages()
			if err != nil {
				fatal(err)
			}
			for _, p := range paths {
				pkg, err := loader.Load(p)
				if err != nil {
					fatal(err)
				}
				pkgs = append(pkgs, pkg)
			}
		case strings.HasSuffix(arg, ".go"):
			pkg, err := loader.LoadFile(arg)
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, pkg)
		default:
			info, err := os.Stat(arg)
			if err != nil || !info.IsDir() {
				fatal(fmt.Errorf("target %q is neither a package directory, a .go file, nor ./...", arg))
			}
			pkg, err := loader.LoadDir(arg)
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, pkg)
		}
	}

	if *graphOut {
		dumpMachines(pkgs)
		return
	}

	var diags []analysis.Diagnostic
	var notes []string
	for _, pkg := range pkgs {
		if *verbose {
			fmt.Fprintf(os.Stderr, "skelvet: checking %s\n", pkg.Path)
		}
		if *verifySig != "" {
			ds, ns, err := verifySignature(pkg, *verifySig, *kFlag)
			if err != nil {
				fatal(err)
			}
			diags = append(diags, ds...)
			notes = append(notes, ns...)
			continue
		}
		diags = append(diags, analysis.Check(pkg, analyzers)...)
		notes = append(notes, pkg.Notes()...)
	}

	findings := analysis.MakeFindings(diags, root)
	switch {
	case *jsonOut:
		out, err := analysis.JSONReport(findings)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
	case *sarifOut:
		out, err := analysis.SARIFReport(findings, notes)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
	default:
		for _, d := range diags {
			fmt.Println(shortenPos(d, root))
			for _, r := range d.Related {
				fmt.Printf("\t%s: %s\n", shortenRel(r, root), r.Message)
			}
		}
	}
	if !*sarifOut {
		// Bounded analysis must never be silent: surface extraction and
		// exploration notes (SARIF carries them as notifications instead).
		for _, n := range notes {
			fmt.Fprintf(os.Stderr, "skelvet: note: %s\n", n)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "skelvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	if *self {
		fmt.Fprintf(os.Stderr, "skelvet: self-verification OK: %d package(s), %d rule(s), 0 findings\n",
			len(pkgs), len(analyzers))
	}
}

// shortenRel renders a related position relative to the module root.
func shortenRel(r analysis.RelatedPos, root string) string {
	name := r.Pos.Filename
	if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
		name = rel
	}
	return fmt.Sprintf("%s:%d:%d", name, r.Pos.Line, r.Pos.Column)
}

// dumpMachines prints each package's extracted communication machines
// and their model-checking summary.
func dumpMachines(pkgs []*analysis.Package) {
	for _, pkg := range pkgs {
		for _, mr := range pkg.Machines() {
			fmt.Print(mr.Machine.Dump(pkg.Fset))
			fmt.Printf("  matched: explored %d state(s), %d finding(s)\n",
				mr.Result.Explored, len(mr.Result.Findings))
			for _, f := range mr.Result.Findings {
				fmt.Printf("  finding: %s: %s\n", pkg.Fset.Position(f.Pos), f.Message)
			}
		}
		for _, n := range pkg.Notes() {
			fmt.Printf("  note: %s\n", n)
		}
	}
}

// verifySignature checks that pkg — a generated skeleton source — still
// performs exactly the program skeleton construction derives from the
// signature in sigPath at scaling factor k (0: parse the source
// header). Mismatches are reported under the "signature-mismatch" rule.
func verifySignature(pkg *analysis.Package, sigPath string, k int) ([]analysis.Diagnostic, []string, error) {
	sig, err := signature.Load(sigPath)
	if err != nil {
		return nil, nil, err
	}
	if k == 0 {
		k = headerK(pkg)
		if k == 0 {
			return nil, nil, fmt.Errorf("no \"Scaling factor K =\" header in %s; pass -K", pkg.Path)
		}
	}
	p, err := skeleton.Build(sig, k)
	if err != nil {
		return nil, nil, err
	}
	want := skeleton.Canon(p)

	mismatch := func(msg string) []analysis.Diagnostic {
		pos := pkg.Fset.Position(pkg.Files[0].Pos())
		return []analysis.Diagnostic{{
			Rule: "signature-mismatch", Pos: pos, Severity: analysis.Error, Message: msg,
		}}
	}
	machines := commgraph.Extract(commgraph.Source{Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info})
	if len(machines) != 1 {
		return mismatch(fmt.Sprintf("expected one communication machine in the skeleton source, extracted %d", len(machines))), nil, nil
	}
	lowered, err := staticsig.Lower(&machines[0], pkg.Fset)
	if err != nil {
		return mismatch(fmt.Sprintf("no static signature recovered: %v", err)), nil, nil
	}
	static := signature.Canon(lowered)
	if d := want.Diff(static); d != "" {
		return mismatch(fmt.Sprintf("source does not match the signature at K=%d: %s", k, d)), nil, nil
	}
	// The scaled-shape check guards against a Diff blind spot, but when K
	// does not divide the signature's loop counts evenly, construction
	// itself produces a ragged tail (remainder iterations with ops whose
	// scaled count rounds to zero). The source already matched that exact
	// program, so the deviation is a property of K, not source drift.
	if d := signature.ScaledDiff(signature.Canon(sig), static); d != "" {
		if signature.ScaledDiff(signature.Canon(sig), want) != "" {
			return nil, []string{fmt.Sprintf(
				"%s: K=%d does not divide the signature's loop structure evenly; "+
					"scaled-shape check reduced to exact program equality", pkg.Path, k)}, nil
		}
		return mismatch(fmt.Sprintf("source is not a scaled-down version of the signature: %s", d)), nil, nil
	}
	return nil, nil, nil
}

// headerK parses the generated-source header comment
// "Scaling factor K = <n>".
func headerK(pkg *analysis.Package) int {
	const marker = "Scaling factor K = "
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if i := strings.Index(c.Text, marker); i >= 0 {
					rest := c.Text[i+len(marker):]
					if j := strings.IndexByte(rest, ';'); j >= 0 {
						rest = rest[:j]
					}
					if k, err := strconv.Atoi(strings.TrimSpace(rest)); err == nil {
						return k
					}
				}
			}
		}
	}
	return 0
}

// shortenPos rewrites absolute file positions relative to the module
// root for stable, readable output.
func shortenPos(d analysis.Diagnostic, root string) string {
	s := d.String()
	if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		s = strings.Replace(s, d.Pos.Filename, rel, 1)
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "skelvet:", err)
	os.Exit(2)
}
