package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"perfskel/internal/analysis/dataflow"
)

// Package is one loaded, type-checked package: the unit the analyzers
// run over.
type Package struct {
	// Path is the import path ("main" for single generated sources).
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Communication-machine cache filled lazily by Machines(): the
	// path-sensitive rules all share one extraction + exploration.
	mach     []MachineResult
	machDone bool
	notes    []string

	loader *Loader // back-pointer for cross-package summary resolution
	funcs  map[*types.Func]*ast.FuncDecl
}

// FuncDecl returns the declaration of a function defined in this
// package, or nil. The index is built lazily from Info.Defs.
func (p *Package) FuncDecl(fn *types.Func) *ast.FuncDecl {
	if p.funcs == nil {
		p.funcs = map[*types.Func]*ast.FuncDecl{}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					p.funcs[obj] = fd
				}
			}
		}
	}
	return p.funcs[fn]
}

// Summaries returns the module-wide dataflow summary cache shared by
// every package this loader produced, or nil for a loader-less package.
func (p *Package) Summaries() *dataflow.Summaries {
	if p.loader == nil {
		return nil
	}
	return p.loader.Summaries()
}

// Loader parses and type-checks packages of one module plus their
// standard-library dependencies, using only the standard library
// itself: module-local import paths are resolved against the module
// root, everything else is type-checked from GOROOT source by
// stdImporter.
// Loaded packages are cached, so checking many generated sources
// against the same module is cheap after the first load.
type Loader struct {
	Fset   *token.FileSet
	root   string // module root directory (holds go.mod)
	module string // module path from go.mod

	std     *stdImporter
	pkgs    map[string]*Package
	byTypes map[*types.Package]*Package
	sums    *dataflow.Summaries
	loading map[string]bool
	genSeq  int
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// NewLoader returns a loader rooted at the module containing root (a
// directory inside the module).
func NewLoader(root string) (*Loader, error) {
	modRoot, err := FindModuleRoot(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", modRoot)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    modRoot,
		module:  module,
		std:     newStdImporter(fset),
		pkgs:    map[string]*Package{},
		byTypes: map[*types.Package]*Package{},
		loading: map[string]bool{},
	}, nil
}

// LoadPath loads the package p names with a fresh loader: a directory,
// under the module that contains it, or else a module-local import
// path of the module containing the working directory.
func LoadPath(p string) (*Package, error) {
	root, isDir := ".", false
	if st, err := os.Stat(p); err == nil && st.IsDir() {
		root, isDir = p, true
	}
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	if isDir {
		return l.LoadDir(p)
	}
	return l.Load(p)
}

// Summaries returns the loader's shared dataflow summary cache,
// resolving callees across every package the loader has type-checked.
func (l *Loader) Summaries() *dataflow.Summaries {
	if l.sums == nil {
		l.sums = dataflow.NewSummaries(l.funcSource)
	}
	return l.sums
}

func (l *Loader) funcSource(fn *types.Func) (dataflow.FuncSource, bool) {
	if fn.Pkg() == nil {
		return dataflow.FuncSource{}, false
	}
	pkg, ok := l.byTypes[fn.Pkg()]
	if !ok {
		return dataflow.FuncSource{}, false
	}
	decl := pkg.FuncDecl(fn)
	if decl == nil {
		return dataflow.FuncSource{}, false
	}
	return dataflow.FuncSource{Decl: decl, Info: pkg.Info, Pkg: pkg.Types, Fset: pkg.Fset}, true
}

// ModuleRoot returns the module root directory.
func (l *Loader) ModuleRoot() string { return l.root }

// ModulePath returns the module path from go.mod.
func (l *Loader) ModulePath() string { return l.module }

// Import implements types.Importer for the type checker: module-local
// paths are loaded from the module tree, everything else from the
// standard library's source.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// Load parses and type-checks the module package with the given import
// path (the module path itself names the root package).
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	dir := l.root
	if rest, ok := strings.CutPrefix(path, l.module+"/"); ok {
		dir = filepath.Join(l.root, filepath.FromSlash(rest))
	} else if path != l.module {
		return nil, fmt.Errorf("analysis: %s is not a module-local import path", path)
	}

	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg, err := l.check(path, dir, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadDir loads the package in dir, which must live inside the module.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.root)
	}
	path := l.module
	if rel != "." {
		path = l.module + "/" + filepath.ToSlash(rel)
	}
	return l.Load(path)
}

// LoadSource type-checks a single in-memory source file (such as a
// generated skeleton program) against the module's real API. The
// package takes its name from the package clause; generated skeletons
// are package main.
func (l *Loader) LoadSource(filename, src string) (*Package, error) {
	l.genSeq++
	unique := fmt.Sprintf("%s#%d", filename, l.genSeq)
	f, err := parser.ParseFile(l.Fset, unique, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return l.check(f.Name.Name, l.root, []*ast.File{f})
}

// LoadFile loads one on-disk Go file as its own single-file package.
func (l *Loader) LoadFile(path string) (*Package, error) {
	f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return l.check(f.Name.Name, filepath.Dir(path), []*ast.File{f})
}

// ModulePackages returns the import paths of every package in the
// module, in sorted order. testdata, hidden and underscore-prefixed
// directories are skipped, and so is every nested module (a directory
// below the root holding its own go.mod), mirroring `go list ./...`.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p == l.root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(l.root, filepath.Dir(p))
		if err != nil {
			return err
		}
		path := l.module
		if rel != "." {
			path = l.module + "/" + filepath.ToSlash(rel)
		}
		if len(paths) == 0 || paths[len(paths)-1] != path {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	// WalkDir visits files in order, but dedupe defensively.
	out := paths[:0]
	for i, p := range paths {
		if i == 0 || paths[i-1] != p {
			out = append(out, p)
		}
	}
	return out, nil
}

func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) check(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", path, err)
	}
	pkg := &Package{
		Path:   path,
		Dir:    dir,
		Fset:   l.Fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		loader: l,
	}
	l.byTypes[tpkg] = pkg
	return pkg, nil
}
