package analysis

import (
	"bytes"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"
)

// stdPackages returns the standard-library closure of every module
// package as go/build computes it, vendored packages under their
// "vendor/" path, and imports each of them explicitly with the
// loader's importer. Loading the module itself would not do: an import
// that no declaration names is stubbed, so loading reaches only part
// of the closure.
func stdPackages(t *testing.T, l *Loader) []string {
	t.Helper()
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var queue []*build.Package
	visit := func(imports []string, srcDir string) {
		for _, path := range imports {
			if path == "unsafe" || path == l.ModulePath() || strings.HasPrefix(path, l.ModulePath()+"/") {
				continue
			}
			bp, err := l.std.ctxt.Import(path, srcDir, 0)
			if err != nil {
				t.Fatalf("go/build: %s: %v", path, err)
			}
			if !seen[bp.ImportPath] {
				seen[bp.ImportPath] = true
				queue = append(queue, bp)
			}
		}
	}
	for _, path := range paths {
		dir := filepath.Join(l.ModuleRoot(), strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath()), "/"))
		bp, err := l.std.ctxt.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("go/build: %s: %v", path, err)
		}
		visit(bp.Imports, dir)
	}
	for len(queue) > 0 {
		bp := queue[0]
		queue = queue[1:]
		visit(bp.Imports, bp.Dir)
	}
	std := make([]string, 0, len(seen))
	vendored := 0
	for path := range seen {
		std = append(std, path)
		if strings.HasPrefix(path, "vendor/") {
			vendored++
		}
	}
	sort.Strings(std)
	for _, path := range std {
		pkg, err := l.std.Import(path)
		if err != nil {
			t.Fatalf("import %s: %v", path, err)
		}
		if pkg.Path() != path {
			t.Fatalf("import %s gave %s", path, pkg.Path())
		}
	}
	for path, pkg := range l.std.pkgs {
		if pkg == nil {
			t.Fatalf("%s left marked in progress", path)
		}
	}
	t.Logf("standard-library closure: %d packages, %d of them vendored", len(std), vendored)
	return std
}

// TestStdImporterFilesMatchBuild: for every package in the module's
// standard-library closure, the importer reads exactly the files
// go/build selects as GoFiles under the same context.
func TestStdImporterFilesMatchBuild(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	std := stdPackages(t, l)
	if len(std) < 150 {
		t.Fatalf("module reaches only %d standard-library packages: %v", len(std), std)
	}
	for _, path := range std {
		bp, err := l.std.ctxt.Import(path, "", 0)
		if err != nil {
			t.Errorf("go/build: %s: %v", path, err)
			continue
		}
		got, _, err := l.std.files(bp.Dir)
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

// objects renders every package-level object of pkg, exported or not,
// with the exact value of each constant, and every method of its named
// types, fully qualified and sorted.
func objects(pkg *types.Package) []string {
	var out []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		s := types.ObjectString(obj, nil)
		if c, ok := obj.(*types.Const); ok {
			s += " = " + c.Val().ExactString()
		}
		out = append(out, s)
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

// missing returns the elements of the sorted list a that the sorted
// list b lacks.
func missing(a, b []string) []string {
	var out []string
	for _, s := range a {
		if i := sort.SearchStrings(b, s); i == len(b) || b[i] != s {
			out = append(out, s)
		}
	}
	return out
}

// TestStdImporterMatchesSourceImporter: over the standard-library
// closure of the whole module, every package-level declaration the
// importer produces renders exactly as go/importer's source importer
// renders it, constant values and methods included. Every stub the
// importer handed out for an import no declaration names is complete,
// empty and named as the source importer names that package. The
// source importer reads build.Default, so cgo is turned off there too:
// it then selects the same pure-Go files and runs no cgo.
func TestStdImporterMatchesSourceImporter(t *testing.T) {
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	std := stdPackages(t, l)
	oracle := importer.ForCompiler(token.NewFileSet(), "source", nil)
	objs, stubs := 0, 0
	for _, path := range std {
		ref, err := oracle.Import(path)
		if err != nil {
			t.Fatalf("source importer: %s: %v", path, err)
		}
		if ref.Path() != path {
			t.Fatalf("source importer resolved %s to %s", path, ref.Path())
		}
		pkg := l.std.pkgs[path]
		got, want := objects(pkg), objects(ref)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: declarations differ:\nonly here: %v\nonly in the source importer: %v", path, missing(got, want), missing(want, got))
		}
		objs += len(got)
		for _, imp := range pkg.Imports() {
			if imp == l.std.pkgs[imp.Path()] || imp == types.Unsafe {
				continue
			}
			stubs++
			ref, err := oracle.Import(imp.Path())
			if err != nil {
				t.Fatalf("source importer: %s: %v", imp.Path(), err)
			}
			if imp.Name() != ref.Name() || !imp.Complete() || imp.Scope().Len() != 0 {
				t.Errorf("%s: stub for %s is named %q (complete %v, %d objects), want %q, complete and empty",
					path, imp.Path(), imp.Name(), imp.Complete(), imp.Scope().Len(), ref.Name())
			}
		}
	}
	if stubs == 0 {
		t.Fatal("no import was stubbed; the stub checks prove nothing")
	}
	t.Logf("%d packages, %d declarations, %d stubbed imports", len(std), objs, stubs)
}

// TestLoadImportsOnlyDeclared: the NAS models package reaches the
// runtime, os and syscall packages only through function bodies, so
// loading it type-checks none of them. The module packages behind
// internal/service that import os themselves still get the real
// package from the same loader afterwards.
func TestLoadImportsOnlyDeclared(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(l.ModulePath() + "/internal/nas"); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"runtime", "os", "syscall"} {
		if _, ok := l.std.pkgs[path]; ok {
			t.Errorf("loading internal/nas type-checked %s", path)
		}
	}
	if _, err := l.Load(l.ModulePath() + "/internal/service"); err != nil {
		t.Fatal(err)
	}
	os := l.std.pkgs["os"]
	if os == nil || os.Scope().Lookup("ReadFile") == nil {
		t.Fatalf("loading internal/service left os %v", os)
	}
	users := 0
	for path, pkg := range l.pkgs {
		for _, imp := range pkg.Types.Imports() {
			if imp.Path() == "os" {
				users++
				if imp != os {
					t.Errorf("%s got an os package with %d objects, not the loaded one", path, imp.Scope().Len())
				}
			}
		}
	}
	if users == 0 {
		t.Fatal("no module package internal/service reaches imports os; the test proves nothing")
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

// blankCases are Go files in which « and » mark what blank must blank.
var blankCases = []struct{ name, tmpl string }{
	{"generic constraint", "package p\n\nfunc F[T interface{ ~int | ~string }](x T) T {«\n\treturn x\n»}\n"},
	{"struct and interface in the signature", "package p\n\nfunc f(a struct{ x int }) (b interface{ M() }) {« return nil »}\n"},
	{"func result", "package p\n\nfunc f() func() {«\n\treturn func() { println() }\n»}\n"},
	{"method of a generic type", "package p\n\nfunc (r *T[K, V]) M(k K) V {« return r.m[k] »}\n"},
	{"braces in literals and comments", "package p\n\nfunc f() {«\n\ts, r, q := \"}\\\"}\", '}', `\n}`\n\t/* } */ // }\n\t_ = '\\''\n»}\n\nvar x = 1\n"},
	{"assembly func then a var literal", "package p\n\nfunc g(x int) int\n\nvar m = map[string]int{«\"a\": 1, \"}\": 2»}\n"},
	{"var group", "package p\n\nvar (\n\ta = []int{«1, 2»}\n\tb = func() int {« return 1 »}()\n\tc struct{ f int }\n\td = struct{ f int }{«f: 1»}\n)\n"},
	{"[...] keeps its declaration", "package p\n\nvar (\n\ta = []int{1}\n\tb = [...]string{\"x\"}\n)\n\nvar c = T{«1»}\n"},
	{"const and type untouched", "package p\n\nconst c = len(\"{\")\n\ntype T struct{ f func() }\n\ntype I interface{ M() }\n"},
	{"exponent then a body", "package p\n\nvar e, h = 1e+3, 0x1p-2\n\nfunc k() {« _ = e »}\n"},
	{"unterminated body", "package p\n\nfunc f() {\n"},
}

// blankCase returns the source a template holds and what blank must
// make of it: each byte between « and » becomes a space, newlines kept.
func blankCase(tmpl string) (src, want string) {
	var s, w strings.Builder
	in := false
	for _, r := range tmpl {
		switch {
		case r == '«':
			in = true
		case r == '»':
			in = false
		case in && r != '\n':
			s.WriteRune(r)
			w.WriteString(strings.Repeat(" ", utf8.RuneLen(r)))
		default:
			s.WriteRune(r)
			w.WriteRune(r)
		}
	}
	return s.String(), w.String()
}

func TestBlank(t *testing.T) {
	for _, c := range blankCases {
		src, want := blankCase(c.tmpl)
		got := []byte(src)
		blank(got)
		if string(got) != want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, want)
		}
	}
}

// declNames parses src and lists its top-level declarations.
func declNames(src []byte) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), "f.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			names = append(names, "func "+d.Name.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ImportSpec:
					names = append(names, "import "+s.Path.Value)
				case *ast.TypeSpec:
					names = append(names, "type "+s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names = append(names, d.Tok.String()+" "+n.Name)
					}
				}
			}
		}
	}
	return names, nil
}

// FuzzBlank: blank never panics and only turns bytes other than
// newlines into spaces, and a file that parses still parses after it,
// with the same top-level declarations.
func FuzzBlank(f *testing.F) {
	for _, name := range []string{"errors/errors.go", "errors/wrap.go", "sort/search.go", "strings/clone.go"} {
		src, err := os.ReadFile(filepath.Join(build.Default.GOROOT, "src", filepath.FromSlash(name)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	for _, c := range blankCases {
		src, _ := blankCase(c.tmpl)
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		out := bytes.Clone(src)
		blank(out)
		if len(out) != len(src) {
			t.Fatalf("length %d became %d", len(src), len(out))
		}
		for i, c := range out {
			if c != src[i] && (c != ' ' || src[i] == '\n') {
				t.Fatalf("byte %d: %q became %q", i, src[i], c)
			}
		}
		want, err := declNames(src)
		if err != nil {
			return
		}
		got, err := declNames(out)
		if err != nil {
			t.Fatalf("no longer parses: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("declarations %v became %v", want, got)
		}
	})
}
