package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// stdImporter type-checks standard-library packages from GOROOT
// source. It reads only the files the build would compile: the
// non-test .go files of the package directory that build.Context
// accepts for the host GOOS/GOARCH with cgo disabled. With cgo off the
// pure-Go variants of packages such as net and os/user are selected,
// so importing never runs `go tool cgo` or any other subprocess. Files
// are parsed one at a time in directory order, which keeps the shared
// FileSet deterministic, and function bodies are not type-checked: an
// importer needs only the package's declarations.
type stdImporter struct {
	fset  *token.FileSet
	ctxt  build.Context
	src   string // GOROOT/src
	sizes types.Sizes
	pkgs  map[string]*types.Package // nil while a package is being imported
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &stdImporter{
		fset:  fset,
		ctxt:  ctxt,
		src:   filepath.Join(ctxt.GOROOT, "src"),
		sizes: types.SizesFor("gc", ctxt.GOARCH),
		pkgs:  map[string]*types.Package{},
	}
}

// Import implements types.Importer.
func (s *stdImporter) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom. srcDir is the importing
// package's directory: only a package inside GOROOT may import from
// GOROOT/src/vendor, as with the go command.
func (s *stdImporter) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	dir := filepath.Join(s.src, filepath.FromSlash(path))
	if _, err := os.Stat(dir); os.IsNotExist(err) && strings.HasPrefix(srcDir, s.src+string(filepath.Separator)) {
		path = "vendor/" + path
		dir = filepath.Join(s.src, filepath.FromSlash(path))
	}
	if pkg, ok := s.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return pkg, nil
	}
	names, err := s.files(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: import %s: %w", path, err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: import %s: no buildable Go files in %s", path, dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	s.pkgs[path] = nil // in progress: a re-import is a cycle
	conf := types.Config{Importer: s, IgnoreFuncBodies: true, Sizes: s.sizes}
	pkg, err := conf.Check(path, s.fset, files, nil)
	if err != nil {
		delete(s.pkgs, path)
		return nil, fmt.Errorf("analysis: typecheck %s: %w", path, err)
	}
	s.pkgs[path] = pkg
	return pkg, nil
}

// files lists the Go files in dir that the build selects, in
// directory order.
func (s *stdImporter) files(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := s.ctxt.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, name)
		}
	}
	return names, nil
}
