package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"perfskel"
	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/nas"
	"perfskel/internal/trace"
)

// buildSkelvet compiles the command once per test binary.
var skelvetBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "skelvet")
	if err != nil {
		panic(err)
	}
	skelvetBin = filepath.Join(dir, "skelvet")
	out, err := exec.Command("go", "build", "-o", skelvetBin, ".").CombinedOutput()
	if err != nil {
		panic("build skelvet: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the built binary and returns its exit code and combined
// output.
func run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(skelvetBin, args...).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("skelvet %v: %v\n%s", args, err, out)
	}
	return ee.ExitCode(), string(out)
}

// TestExitCodes pins the documented exit-status contract across modes:
// 0 clean, 1 findings or divergence, 2 usage or load errors.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.go")
	if err := os.WriteFile(clean, []byte("package main\n\nfunc main() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dirty := filepath.Join(dir, "dirty.go")
	src := "package main\n\nimport (\n\t\"fmt\"\n\t\"time\"\n)\n\nfunc main() { fmt.Println(time.Now()) }\n"
	if err := os.WriteFile(dirty, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean file", []string{clean}, 0},
		{"finding", []string{dirty}, 1},
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"json and sarif", []string{"-json", "-sarif", clean}, 2},
		{"missing target", []string{filepath.Join(dir, "absent.go")}, 2},
		{"unknown rule", []string{"-rules", "no-such-rule", clean}, 2},
		{"static-diff bad ranks", []string{"-static-diff", "-n", "1"}, 2},
		{"static-diff mode clash", []string{"-static-diff", "-self"}, 2},
		{"static-diff unknown app", []string{"-static-diff", "NoSuchModel"}, 2},
	}
	for _, c := range cases {
		if got, out := run(t, c.args...); got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, got, c.want, out)
		}
	}
}

// TestUsageDocumentsExitStatus pins that -h prints the exit-status
// table, so the contract is discoverable.
func TestUsageDocumentsExitStatus(t *testing.T) {
	code, out := run(t, "-h")
	if code != 0 {
		t.Errorf("-h exited %d, want 0 (explicit help request, flag.ErrHelp)", code)
	}
	for _, want := range []string{"exit status", "0  clean", "1  findings", "2  usage"} {
		if !strings.Contains(out, want) {
			t.Errorf("usage output missing %q:\n%s", want, out)
		}
	}
}

// TestStaticDiffClean pins that -static-diff exits 0 when a model's
// static synthesis matches its trace and prints the per-model report.
func TestStaticDiffClean(t *testing.T) {
	code, out := run(t, "-static-diff", "-n", "4", "-class", "S", "EP")
	if code != 0 {
		t.Fatalf("static-diff EP exited %d:\n%s", code, out)
	}
	for _, want := range []string{"EP class S on 4 ranks", "structure: OK", "bytes: OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("static-diff output missing %q:\n%s", want, out)
		}
	}
}

// TestVerifySignature turns the EXPERIMENTS.md seeded-drift recipe into
// a test: a pristine generated skeleton verifies against its signature,
// swapping a collective is reported as signature drift, and a source
// whose K can be neither parsed nor given is a usage error.
func TestVerifySignature(t *testing.T) {
	app, err := nas.App("CG", nas.Class("S"))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(4)
	dur, err := mpi.Run(cluster.Build(cluster.Testbed(4), cluster.Dedicated()), 4, mpi.Config{}, rec, app)
	if err != nil {
		t.Fatal(err)
	}
	prog, sig, err := perfskel.Construct(rec.Finish(dur), perfskel.WithK(4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sigPath := filepath.Join(dir, "cg.sig.json")
	if err := sig.Save(sigPath); err != nil {
		t.Fatal(err)
	}
	src := perfskel.GoSource(prog)
	write := func(name, text string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	pristine := write("cg_skel.go", src)
	if code, out := run(t, "-verify-signature", sigPath, pristine); code != 0 {
		t.Fatalf("pristine skeleton: exit %d, want 0\n%s", code, out)
	}

	if !strings.Contains(src, "c.Allreduce(") {
		t.Fatal("CG skeleton source has no Allreduce to swap")
	}
	drift := write("cg_drift.go", strings.ReplaceAll(src, "c.Allreduce(", "c.Reduce(0, "))
	code, out := run(t, "-verify-signature", sigPath, drift)
	if code != 1 {
		t.Fatalf("drifted skeleton: exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"signature-mismatch", "MPI_Allreduce(", ") vs MPI_Reduce("} {
		if !strings.Contains(out, want) {
			t.Errorf("drift report missing %q:\n%s", want, out)
		}
	}

	const marker = "Scaling factor K = "
	if !strings.Contains(src, marker) {
		t.Fatalf("generated source has no %q header", marker)
	}
	headless := write("cg_headless.go", strings.ReplaceAll(src, marker, "Scaling factor: "))
	code, out = run(t, "-verify-signature", sigPath, headless)
	if code != 2 {
		t.Fatalf("source without K header: exit %d, want 2\n%s", code, out)
	}
	if !strings.Contains(out, `no "Scaling factor K =" header`) {
		t.Errorf("missing-header error does not say so:\n%s", out)
	}
}
