// Package staticsig synthesizes execution signatures from MPI program
// source without running the program — the trace-free front-end of the
// skeleton pipeline.
//
// The trace pipeline observes one (P, class) execution and compresses
// it; this package instead reads the program. Extract resolves an
// application's registered constructor (a `registry` map entry or a
// declared function) and captures it as a Parametric signature: the
// per-rank program body plus the class parameter tables it selects
// from, with the source content-hashed for cache addressing.
// Instantiate interprets the constructor for a concrete problem-size
// class — binding each parameter-table field to its constant — and
// symbolically executes the program body at a concrete rank count P
// through commgraph/symexec. The resulting automaton converts to a
// signature.Signature that flows through skeleton.Build, Canon and
// ScaledDiff unchanged.
//
// Two kinds of values survive only as placeholders rather than proofs:
// compute work containing mean-one perturbation factors (jitter) is a
// dominant-factor estimate (Op.WorkApprox), and message volumes the
// interpreter cannot resolve (per-pair Alltoallv sizes) stay unknown.
// Both are recorded on the Instance as placeholder notes, and
// placeholder byte keys are excluded from byte cross-validation (Diff).
package staticsig

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/format"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"sync"

	"perfskel/internal/analysis/commgraph"
	"perfskel/internal/analysis/symexec"
	"perfskel/internal/signature"
)

// Parametric is an application captured from source: the constructor
// entry point plus the package context needed to instantiate it at any
// concrete (rank count, problem-size class).
type Parametric struct {
	// App is the registered application name the constructor was
	// resolved for.
	App string
	// SourceHash content-addresses the package source the signature was
	// extracted from; instances embed it in their cache keys.
	SourceHash string

	src    commgraph.Source
	info   *types.Info
	entry  ast.Node // *ast.FuncDecl or *ast.FuncLit constructor
	funcs  map[types.Object]*ast.FuncDecl
	tables map[types.Object]*ast.CompositeLit

	mu   sync.Mutex
	memo map[instKey]*Instance
}

type instKey struct {
	nranks int
	class  string
}

// Extract resolves the named application's constructor in a parsed,
// type-checked package and returns its parametric signature. The app
// is found through a package-level registry map literal (a constant
// string key naming a declared function or function literal) or, when
// no registry entry exists, a function declaration of the same name.
func Extract(src commgraph.Source, app string) (*Parametric, error) {
	if src.Info == nil || src.Fset == nil {
		return nil, fmt.Errorf("staticsig: source package is missing type information")
	}
	p := &Parametric{
		App:    app,
		src:    src,
		info:   src.Info,
		funcs:  map[types.Object]*ast.FuncDecl{},
		tables: map[types.Object]*ast.CompositeLit{},
		memo:   map[instKey]*Instance{},
	}
	for _, f := range src.Files {
		for _, d := range f.Decls {
			switch decl := d.(type) {
			case *ast.FuncDecl:
				if obj := src.Info.Defs[decl.Name]; obj != nil {
					p.funcs[obj] = decl
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i >= len(vs.Values) {
							break
						}
						lit, ok := ast.Unparen(vs.Values[i]).(*ast.CompositeLit)
						if !ok {
							continue
						}
						if obj := src.Info.Defs[name]; obj != nil {
							p.tables[obj] = lit
						}
					}
				}
			}
		}
	}
	entry, err := p.findApp(app)
	if err != nil {
		return nil, err
	}
	p.entry = entry
	hash, err := hashSource(src)
	if err != nil {
		return nil, err
	}
	p.SourceHash = hash
	return p, nil
}

// hashSource content-addresses the package: a SHA-256 over each file's
// base name and formatted rendering, in name order. A package's files
// share one directory, so base names identify them; hashing neither
// the directory nor the raw bytes makes the hash independent of where
// the source is checked out and byte-identical for byte-identical
// source.
func hashSource(src commgraph.Source) (string, error) {
	type file struct {
		name string
		f    *ast.File
	}
	files := make([]file, 0, len(src.Files))
	for _, f := range src.Files {
		files = append(files, file{filepath.Base(src.Fset.Position(f.Pos()).Filename), f})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })
	h := sha256.New()
	for _, ff := range files {
		io.WriteString(h, ff.name)
		h.Write([]byte{0})
		if err := format.Node(h, src.Fset, ff.f); err != nil {
			return "", fmt.Errorf("staticsig: hash source %s: %w", ff.name, err)
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// Instance is a parametric signature instantiated at a concrete rank
// count and problem-size class: an ordinary execution signature plus
// the record of what remains a placeholder.
type Instance struct {
	App    string
	Class  string
	NRanks int
	// Key content-addresses the instance: app, class, rank count and
	// source hash. Two runs over byte-identical source produce the same
	// key, so caches need no trace or topology input.
	Key string
	// SourceHash is the parametric signature's source hash.
	SourceHash string
	// Params renders the class parameter bindings ("outer=15", ...) in
	// table field order, for reports.
	Params []string
	// Sig is the synthesized execution signature. Compute durations are
	// the model's work values (dominant-factor estimates where jittered);
	// communication durations are crude dedicated-run estimates
	// (latency + bytes/bandwidth) that feed only coarse time accounting
	// (AppTime, MinGoodTime), never structure.
	Sig *signature.Signature
	// Placeholders lists what instantiation could estimate but not
	// prove, one note per distinct operation site.
	Placeholders []string
	// PlaceholderKeys marks the canonical communication keys
	// (signature.CanonKey) whose byte volumes are unresolved; byte
	// cross-validation skips them.
	PlaceholderKeys map[string]bool
}

// Instantiate interprets the constructor for the given class, extracts
// the per-rank automata at the given rank count, and converts them to
// an execution signature. Results are memoized per (nranks, class);
// callers share the returned instance.
func (p *Parametric) Instantiate(nranks int, class string) (*Instance, error) {
	if nranks < 1 {
		return nil, fmt.Errorf("staticsig: rank count must be >= 1, got %d", nranks)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	key := instKey{nranks, class}
	if inst, ok := p.memo[key]; ok {
		return inst, nil
	}
	ab, err := p.interpret(p.entry, nil, class, 0)
	if err != nil {
		return nil, fmt.Errorf("staticsig: %s class %s: %w", p.App, class, err)
	}
	prebind := func(env *symexec.Env) {
		for _, b := range ab.binds {
			if b.isFloat {
				env.BindFloat(b.obj, b.f)
			} else {
				env.Bind(b.obj, symexec.Const(b.n))
			}
		}
	}
	m := commgraph.ExtractFunc(p.src, p.App, ab.pos, ab.body, nranks, prebind)
	conv, err := convert(&m, p.src.Fset)
	if err != nil {
		return nil, fmt.Errorf("staticsig: %s class %s on %d ranks: %w", p.App, class, nranks, err)
	}
	if err := conv.sig.Consistent(); err != nil {
		return nil, fmt.Errorf("staticsig: %s class %s on %d ranks: synthesized signature inconsistent: %w",
			p.App, class, nranks, err)
	}
	inst := &Instance{
		App:             p.App,
		Class:           class,
		NRanks:          nranks,
		Key:             fmt.Sprintf("static|app=%s|class=%s|p=%d|src=%s", p.App, class, nranks, p.SourceHash),
		SourceHash:      p.SourceHash,
		Params:          ab.params,
		Sig:             conv.sig,
		Placeholders:    conv.placeholders,
		PlaceholderKeys: conv.placeholderKeys,
	}
	p.memo[key] = inst
	return inst, nil
}

func maxRankTime(s *signature.Signature) float64 {
	t := 0.0
	for r := range s.PerRank {
		if rt := s.RankTime(r); rt > t {
			t = rt
		}
	}
	return t
}
