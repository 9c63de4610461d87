package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// skelBin is the command, compiled once per test binary.
var skelBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "skel")
	if err != nil {
		panic(err)
	}
	skelBin = filepath.Join(dir, "skel")
	out, err := exec.Command("go", "build", "-o", skelBin, ".").CombinedOutput()
	if err != nil {
		panic("build skel: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// skel runs the built binary in dir and returns its exit code, stdout
// and stderr.
func skel(t *testing.T, dir string, args ...string) (int, []byte, string) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(skelBin, args...)
	cmd.Dir = dir
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), out, stderr.String()
	}
	if err != nil {
		t.Fatalf("skel %v: %v", args, err)
	}
	return 0, out, stderr.String()
}

// chain is the README pipeline on CG class S with 4 ranks: trace, stat,
// gen, then a skeleton probe and an instrumented benchmark run.
var chain = [][]string{
	{"trace", "-bench", "CG", "-class", "S", "-ranks", "4", "-o", "cg.trace.json"},
	{"stat", "-trace", "cg.trace.json", "-q", "4", "-dumpsig"},
	{"gen", "-trace", "cg.trace.json", "-k", "4", "-o", "cg.skel.json",
		"-c", "cg_skel.c", "-gosrc", "cg_skel.go", "-sig", "cg.sig.json"},
	{"run", "-skel", "cg.skel.json", "-scenario", "combined"},
	{"run", "-bench", "CG", "-class", "S", "-ranks", "4",
		"-json", "-metrics", "-timeline", "-trace", "cg.perfetto.json"},
}

const chainGolden = "testdata/chain.golden"

// hashes returns one "sha256 <hex>  <name>" line per file in dir.
func hashes(t *testing.T, dir string) []string {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("sha256 %x  %s", sha256.Sum256(data), f.Name()))
	}
	return lines
}

// TestChain runs the pipeline in a temp dir with relative paths and
// compares each step's exit code and stdout, plus the SHA-256 of every
// file the chain writes, against the golden. The golden was recorded
// from the four single-step commands skel replaced.
func TestChain(t *testing.T) {
	dir := t.TempDir()
	var got bytes.Buffer
	for _, step := range chain {
		code, out, _ := skel(t, dir, step...)
		fmt.Fprintf(&got, "$ %s\nexit %d\n%s", strings.Join(step, " "), code, out)
	}
	for _, line := range hashes(t, dir) {
		fmt.Fprintln(&got, line)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(chainGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(chainGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("chain output drifted from %s:\ngot:\n%s\nwant:\n%s", chainGolden, got.Bytes(), want)
	}
}

// TestExperimentsRecipe runs step 1 of EXPERIMENTS.md's static
// verification recipe as the document spells it, with /tmp moved to a
// temp dir. It traces and builds the same skeleton as the chain, so
// every file it writes must hash as the chain golden's file of that
// name.
func TestExperimentsRecipe(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(doc), "\\\n", " ")
	_, step1, ok := strings.Cut(text, "# 1. Trace an application and build its skeleton")
	step1, _, ok2 := strings.Cut(step1, "# 2.")
	if !ok || !ok2 {
		t.Fatal("EXPERIMENTS.md lacks the static verification recipe's step 1")
	}
	dir := t.TempDir()
	var ran int
	for _, line := range strings.Split(step1, "\n") {
		args, ok := strings.CutPrefix(strings.TrimSpace(line), "go run ./cmd/skel ")
		if !ok {
			continue
		}
		args = strings.ReplaceAll(args, "/tmp/", dir+"/")
		if code, _, stderr := skel(t, dir, strings.Fields(args)...); code != 0 {
			t.Fatalf("%s: exit %d\n%s", line, code, stderr)
		}
		ran++
	}
	if ran != 2 {
		t.Fatalf("step 1 has %d skel commands, want trace and gen", ran)
	}
	golden, err := os.ReadFile(chainGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range hashes(t, dir) {
		if !bytes.Contains(golden, []byte(line+"\n")) {
			t.Errorf("recipe output %q is not in %s", line, chainGolden)
		}
	}
}

// TestUsageErrors: a missing or unknown subcommand exits 2 with the
// subcommand list; conflicting or missing inputs exit 1 with the
// subcommand's prefix, before anything runs.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{nil, {"nosuch"}, {"-h"}} {
		code, _, stderr := skel(t, dir, args...)
		if code != 2 {
			t.Errorf("skel %v: exit %d, want 2", args, code)
		}
		for _, c := range commands {
			if !strings.Contains(stderr, "  "+c.name+" ") {
				t.Errorf("skel %v: usage does not list %q:\n%s", args, c.name, stderr)
			}
		}
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"stat"}, "skel stat: -trace is required"},
		{[]string{"gen", "-k", "4"}, "skel gen: exactly one of -trace or -static is required"},
		{[]string{"gen", "-k", "4", "-trace", "t.json", "-static", "internal/nas"},
			"skel gen: exactly one of -trace or -static is required"},
		{[]string{"gen", "-trace", "t.json"}, "skel gen: exactly one of -time or -k is required"},
		{[]string{"run"}, "skel run: exactly one of -skel or -bench is required"},
		{[]string{"run", "-skel", "s.json", "-bench", "CG"}, "skel run: exactly one of -skel or -bench is required"},
		{[]string{"trace", "-bench", "cg"}, `skel trace: nas: unknown benchmark "cg"`},
		{[]string{"run", "-bench", "CG", "-scenario", "shared"}, `skel run: cluster: unknown scenario "shared"`},
	} {
		code, out, stderr := skel(t, dir, c.args...)
		if code != 1 || len(out) != 0 || !strings.HasPrefix(stderr, c.want) {
			t.Errorf("skel %v: exit %d, stdout %q, stderr %q; want exit 1 and stderr %q",
				c.args, code, out, stderr, c.want)
		}
	}
	if code, _, _ := skel(t, dir, "run", "-no-such-flag"); code != 2 {
		t.Errorf("skel run -no-such-flag: exit %d, want 2", code)
	}
}

// TestNegativeRanks: a negative rank count is an error, not a panic in
// the testbed constructor (a Go panic exits 2).
func TestNegativeRanks(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"trace", "run"} {
		code, _, stderr := skel(t, dir, sub, "-bench", "CG", "-class", "S", "-ranks", "-1")
		want := "skel " + sub + ": -ranks must be at least 1, got -1\n"
		if code != 1 || stderr != want {
			t.Errorf("skel %s -ranks -1: exit %d, stderr %q; want exit 1, %q", sub, code, stderr, want)
		}
	}
}
