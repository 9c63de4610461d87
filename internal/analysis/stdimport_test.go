package analysis

import (
	"go/importer"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"testing"
)

// stdPackages returns the standard-library import paths, vendored ones
// under their "vendor/" path, that loading the given module packages
// with a fresh loader reaches.
func stdPackages(t *testing.T, l *Loader, paths ...string) []string {
	t.Helper()
	for _, path := range paths {
		if _, err := l.Load(path); err != nil {
			t.Fatalf("Load(%s): %v", path, err)
		}
	}
	var std []string
	for path, pkg := range l.std.pkgs {
		if pkg == nil {
			t.Fatalf("%s left marked in progress", path)
		}
		std = append(std, path)
	}
	sort.Strings(std)
	return std
}

// TestStdImporterFilesMatchBuild: for every standard-library package
// the module reaches, the importer reads exactly the files go/build
// selects as GoFiles under the same context.
func TestStdImporterFilesMatchBuild(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	std := stdPackages(t, l, paths...)
	if len(std) < 60 {
		t.Fatalf("module reaches only %d standard-library packages: %v", len(std), std)
	}
	for _, path := range std {
		bp, err := l.std.ctxt.Import(path, "", 0)
		if err != nil {
			t.Errorf("go/build: %s: %v", path, err)
			continue
		}
		got, err := l.std.files(bp.Dir)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if !reflect.DeepEqual(got, bp.GoFiles) {
			t.Errorf("%s: importer reads %v, go/build selects %v", path, got, bp.GoFiles)
		}
		if len(bp.CgoFiles) != 0 {
			t.Errorf("%s: go/build selects cgo files %v with cgo disabled", path, bp.CgoFiles)
		}
	}
}

// exportedObjects renders every exported package-level object of pkg,
// and every method of its exported named types, fully qualified and
// sorted.
func exportedObjects(pkg *types.Package) []string {
	var out []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		out = append(out, types.ObjectString(obj, nil))
		if _, isType := obj.(*types.TypeName); !isType {
			continue
		}
		if named, ok := obj.Type().(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				out = append(out, types.ObjectString(named.Method(i), nil))
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestStdImporterMatchesSourceImporter: over the NAS models' closure,
// which holds no cgo package, every exported declaration the importer
// produces renders exactly as go/importer's source importer renders it.
func TestStdImporterMatchesSourceImporter(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	std := stdPackages(t, l, l.ModulePath()+"/internal/nas")
	oracle := importer.ForCompiler(token.NewFileSet(), "source", nil)
	for _, path := range std {
		ref, err := oracle.Import(path)
		if err != nil {
			t.Fatalf("source importer: %s: %v", path, err)
		}
		if ref.Path() != path {
			t.Fatalf("source importer resolved %s to %s", path, ref.Path())
		}
		got, want := exportedObjects(l.std.pkgs[path]), exportedObjects(ref)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: exported objects differ:\n got %d: %v\nwant %d: %v", path, len(got), got, len(want), want)
		}
	}
}

// TestLoadStartsNoSubprocess: the service package reaches net, which
// has cgo files. With PATH empty no tool can be found, so the load
// succeeding shows the loader runs no subprocess to type-check it.
func TestLoadStartsNoSubprocess(t *testing.T) {
	t.Setenv("PATH", "")
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(l.ModulePath() + "/internal/service"); err != nil {
		t.Fatalf("Load(internal/service) with PATH empty: %v", err)
	}
	if _, ok := l.std.pkgs["net"]; !ok {
		t.Fatal("internal/service no longer reaches net; the test proves nothing")
	}
}
