package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// sharedLoader caches one module-wide loader across the tests in this
// package; type-checking the module (and the stdlib from source) once
// keeps the suite fast. Tests in a package run sequentially, so the
// unsynchronised cache is safe.
var sharedLoader *Loader

func loader(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := NewLoader(".")
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

// wantsIn extracts the `// want <rule>` markers from a fixture file:
// line number -> expected rule.
func wantsIn(t *testing.T, path, rule string) map[int]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[int]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		idx := strings.Index(line, "// want ")
		if idx < 0 {
			continue
		}
		got := strings.Fields(line[idx+len("// want "):])
		if len(got) == 0 || got[0] != rule {
			t.Fatalf("%s:%d: want marker %q does not name rule %q", path, i+1, line[idx:], rule)
		}
		wants[i+1] = true
	}
	if len(wants) == 0 {
		t.Fatalf("%s: no want markers", path)
	}
	return wants
}

// TestFixturesFireExpectedRules runs each rule over its known-bad
// fixture and asserts it fires exactly at the marked lines.
func TestFixturesFireExpectedRules(t *testing.T) {
	cases := []struct {
		file string
		rule string
	}{
		{"unwaited.go", "unwaited-request"},
		{"sendsend.go", "sendsend-deadlock"},
		{"tagmismatch.go", "tag-mismatch"},
		{"collective.go", "rank-divergent-collective"},
		{"determinism.go", "nondeterminism"},
		{"ring.go", "sendsend-deadlock"},
		{"neighbor.go", "tag-mismatch"},
		{"butterfly.go", "rank-divergent-collective"},
		{"orderflow/taintwrite.go", "orderflow"},
		{"orderflow/crossfunc.go", "orderflow"},
		{"orderflow/fanin.go", "orderflow"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			a := ByName(tc.rule)
			if a == nil {
				t.Fatalf("no analyzer %q", tc.rule)
			}
			pkg, err := loader(t).LoadFile(path)
			if err != nil {
				t.Fatalf("fixture must typecheck: %v", err)
			}
			want := wantsIn(t, path, tc.rule)
			got := map[int]bool{}
			for _, d := range Check(pkg, []*Analyzer{a}) {
				if d.Rule != tc.rule {
					t.Errorf("unexpected rule %s: %s", d.Rule, d)
					continue
				}
				if got[d.Pos.Line] {
					t.Errorf("duplicate diagnostic on line %d: %s", d.Pos.Line, d)
				}
				got[d.Pos.Line] = true
			}
			for line := range want {
				if !got[line] {
					t.Errorf("%s:%d: expected %s diagnostic, got none", path, line, tc.rule)
				}
			}
			for line := range got {
				if !want[line] {
					t.Errorf("%s:%d: unexpected %s diagnostic", path, line, tc.rule)
				}
			}
		})
	}
}

// TestShippedPackagesAreClean runs the full rule set over every package
// in the module: the tree must stay free of findings (exceptions are
// carried by justified skelvet:ignore directives).
func TestShippedPackagesAreClean(t *testing.T) {
	l := loader(t)
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("suspiciously few packages found: %v", paths)
	}
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		for _, d := range Check(pkg, All()) {
			t.Errorf("%s: %s", path, d)
		}
	}
}

// TestModulePackagesSkipsNestedModules: a directory below the root with
// its own go.mod is a separate module and, like testdata, hidden and
// underscore directories, contributes no packages — as with `go list
// ./...`.
func TestModulePackagesSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":                 "module example.com/m\n",
		"a.go":                   "package m\n",
		"sub/b.go":               "package sub\n",
		"sub/deep/c.go":          "package deep\n",
		"nested/go.mod":          "module example.com/nested\n",
		"nested/d.go":            "package nested\n",
		"nested/inner/e.go":      "package inner\n",
		"testdata/f.go":          "package testdata\n",
		".hidden/g.go":           "package hidden\n",
		"_skip/h.go":             "package skip\n",
		"sub/only_test.go":       "package sub\n",
		"tests/only_test.go":     "package tests\n",
		"sub/deep/go.mod.backup": "not a module file\n",
	}
	for name, body := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"example.com/m", "example.com/m/sub", "example.com/m/sub/deep"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("ModulePackages = %v, want %v", got, want)
	}
}

// TestIgnoreDirectives checks that a justified directive suppresses its
// finding and an unjustified one is itself reported.
func TestIgnoreDirectives(t *testing.T) {
	src := `package main

import (
	"fmt"
	"math/rand"
)

func main() {
	fmt.Println(rand.Int()) //skelvet:ignore nondeterminism demo: reason text makes this a documented exception

	fmt.Println(rand.Int()) //skelvet:ignore nondeterminism
}
`
	pkg, err := loader(t).LoadSource("directives.go", src)
	if err != nil {
		t.Fatal(err)
	}
	var rules []string
	for _, d := range Check(pkg, All()) {
		rules = append(rules, fmt.Sprintf("%s@%d", d.Rule, d.Pos.Line))
	}
	want := []string{"nondeterminism@11", "directive@11"}
	if strings.Join(rules, " ") != strings.Join(want, " ") {
		t.Errorf("got diagnostics %v, want %v", rules, want)
	}
}

// TestIgnoreDoesNotCrossRules: suppression is keyed by (line, rule), so
// a line carrying findings from two rules — here a rendezvous ring
// deadlock from the path-sensitive matcher and an ambient-rand
// nondeterminism hit — keeps the finding the directive does not name.
func TestIgnoreDoesNotCrossRules(t *testing.T) {
	const tmpl = `package main

import (
	"math/rand"

	"perfskel"
)

func main() {
	env := perfskel.NewTestbed(4, perfskel.Dedicated())
	if _, err := env.Run(4, func(c *perfskel.Comm) {
		r, n := c.Rank(), c.Size()
		c.Send((r+1)%%n, 1, 1<<20); _ = rand.Int() %s
		c.Recv((r+n-1)%%n, 1)
	}); err != nil {
		panic(err)
	}
}
`
	cases := []struct {
		directive string
		want      []string
	}{
		{"", []string{"nondeterminism", "sendsend-deadlock"}},
		{"//skelvet:ignore nondeterminism seeding is irrelevant in this fixture",
			[]string{"sendsend-deadlock"}},
		{"//skelvet:ignore sendsend-deadlock the ring deadlock is the point of this fixture",
			[]string{"nondeterminism"}},
		{"//skelvet:ignore nondeterminism,sendsend-deadlock both are deliberate here",
			nil},
	}
	for i, tc := range cases {
		pkg, err := loader(t).LoadSource(fmt.Sprintf("cross%d.go", i), fmt.Sprintf(tmpl, tc.directive))
		if err != nil {
			t.Fatal(err)
		}
		var rules []string
		for _, d := range Check(pkg, All()) {
			rules = append(rules, d.Rule)
		}
		sort.Strings(rules)
		if strings.Join(rules, " ") != strings.Join(tc.want, " ") {
			t.Errorf("directive %q: got rules %v, want %v", tc.directive, rules, tc.want)
		}
	}
}

// TestLoadSourceRejectsTypeErrors: the loader is the typecheck gate for
// generated code, so it must fail loudly on code that merely parses.
func TestLoadSourceRejectsTypeErrors(t *testing.T) {
	src := `package main

import "perfskel"

func main() {
	env := perfskel.NewTestbed(2, perfskel.Dedicated())
	env.Run("two", nil) // wrong argument type
}
`
	if _, err := loader(t).LoadSource("broken.go", src); err == nil {
		t.Fatal("expected a typecheck error for a string rank count")
	}
}

// TestLoaderResolvesModuleAndStdlib spot-checks import resolution for
// both worlds.
func TestLoaderResolvesModuleAndStdlib(t *testing.T) {
	l := loader(t)
	pkg, err := l.Load(l.ModulePath() + "/internal/mpi")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Name() != "mpi" {
		t.Errorf("loaded package name %q, want mpi", pkg.Types.Name())
	}
	root, err := l.Load(l.ModulePath())
	if err != nil {
		t.Fatal(err)
	}
	if root.Types.Scope().Lookup("NewTestbed") == nil {
		t.Error("root package lost NewTestbed")
	}
}
