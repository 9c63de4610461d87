package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"perfskel/internal/campaign"
	"perfskel/internal/cluster"
	"perfskel/internal/nas"
)

// skelprofBin is the command, compiled once per test binary.
var skelprofBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "skelprof")
	if err != nil {
		panic(err)
	}
	skelprofBin = filepath.Join(dir, "skelprof")
	out, err := exec.Command("go", "build", "-o", skelprofBin, ".").CombinedOutput()
	if err != nil {
		panic("build skelprof: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the built binary and returns its exit code and stdout.
func run(t *testing.T, args ...string) (int, []byte) {
	t.Helper()
	out, err := exec.Command(skelprofBin, args...).Output()
	if err == nil {
		return 0, out
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("skelprof %v: %v", args, err)
	}
	return ee.ExitCode(), out
}

// TestReportMatchesCampaign: the JSON report's scaling factor and both
// dedicated baselines are the ones campaign's Predict computes for the
// same cell.
func TestReportMatchesCampaign(t *testing.T) {
	code, out := run(t, "-bench", "CG", "-class", "S", "-ranks", "4", "-scenario", "combined", "-critpath", "-json")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var r report
	if err := json.Unmarshal(out, &r); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	app, err := campaign.NASApp("CG", nas.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := cluster.ByName("combined", 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := campaign.New(campaign.Config{}).Predict(campaign.Cell{App: app, NRanks: 4, Scenario: sc, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.K != p.K || r.AppDedicated != p.AppDedicated || r.SkelDedicated != p.SkelDedicated {
		t.Errorf("report k=%d app_dedicated_s=%v skel_dedicated_s=%v, campaign k=%d %v %v",
			r.K, r.AppDedicated, r.SkelDedicated, p.K, p.AppDedicated, p.SkelDedicated)
	}
	if r.CritApp == nil || r.CritSkel == nil || r.PathDivergence == nil {
		t.Error("-critpath report lacks the critical-path sections")
	}
}

// TestUsageErrors: invalid flag combinations exit 2 before any run.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-whatif", "transfer"},
		{"-top", "0"},
	} {
		if code, _ := run(t, args...); code != 2 {
			t.Errorf("skelprof %v: exit %d, want 2", args, code)
		}
	}
}
