package perfskel_test

import (
	"errors"
	"testing"

	"perfskel"
)

// TestErrorTaxonomy pins the exported sentinels: every bad-request
// failure across the pipeline must satisfy errors.Is on exactly one of
// them, which is how the skeletond service separates 400s from 500s
// without string matching.
func TestErrorTaxonomy(t *testing.T) {
	emptyTr := &perfskel.Trace{NRanks: 1, Events: make([][]perfskel.TraceEvent, 1)}
	// A real trace, so the scaling-factor cases fail on the factor alone.
	tr, _, err := perfskel.NewTestbed(1, perfskel.Dedicated()).Trace(1, func(c *perfskel.Comm) { c.Compute(0.01) })
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		err  func() error
		want error
	}{
		{"empty trace, explicit signature options", func() error {
			_, _, err := perfskel.Construct(emptyTr, perfskel.WithK(4),
				perfskel.WithSignatureOptions(perfskel.SignatureOptions{}))
			return err
		}, perfskel.ErrEmptyTrace},
		{"construct empty trace", func() error {
			_, _, err := perfskel.Construct(emptyTr, perfskel.WithK(4))
			return err
		}, perfskel.ErrEmptyTrace},
		{"K = 0", func() error {
			_, _, err := perfskel.Construct(tr, perfskel.WithK(0))
			return err
		}, perfskel.ErrBadK},
		{"negative K", func() error {
			_, _, err := perfskel.Construct(tr, perfskel.WithK(-2))
			return err
		}, perfskel.ErrBadK},
		{"bad target time", func() error {
			_, _, err := perfskel.Construct(tr, perfskel.WithTargetTime(-1))
			return err
		}, perfskel.ErrBadK},
		{"construct no K", func() error {
			_, _, err := perfskel.Construct(emptyTr)
			return err
		}, perfskel.ErrBadK},
		{"unknown scenario", func() error {
			_, err := perfskel.ScenarioByName("bogus", 4)
			return err
		}, perfskel.ErrUnknownScenario},
		{"unknown app", func() error {
			_, err := perfskel.NASApp("ZZ", perfskel.ClassS)
			return err
		}, perfskel.ErrUnknownApp},
	}
	sentinels := []error{
		perfskel.ErrEmptyTrace, perfskel.ErrBadK,
		perfskel.ErrUnknownScenario, perfskel.ErrUnknownApp,
	}
	for _, tc := range cases {
		err := tc.err()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		for _, s := range sentinels {
			if got := errors.Is(err, s); got != (s == tc.want) {
				t.Errorf("%s: errors.Is(%v, %v) = %v", tc.name, err, s, got)
			}
		}
	}
}

// TestUnknownNameErrorsGolden pins the exact error text of the
// unknown-name failures: the valid names are enumerated sorted, so
// service 400 bodies and CLI usage errors are byte-stable across runs
// and releases.
func TestUnknownNameErrorsGolden(t *testing.T) {
	_, err := perfskel.ScenarioByName("bogus", 4)
	if err == nil {
		t.Fatal("want error")
	}
	wantSc := `cluster: unknown scenario "bogus" (valid: combined, cpu-all-nodes, cpu-one-node, dedicated, net-all-links, net-one-link)`
	if err.Error() != wantSc {
		t.Errorf("scenario error:\n got %q\nwant %q", err.Error(), wantSc)
	}

	_, err = perfskel.NASApp("ZZ", perfskel.ClassS)
	if err == nil {
		t.Fatal("want error")
	}
	wantApp := `nas: unknown benchmark "ZZ" (valid: BT, CG, EP, FT, IS, LU, MG, SP)`
	if err.Error() != wantApp {
		t.Errorf("app error:\n got %q\nwant %q", err.Error(), wantApp)
	}
}

// TestScenarioNamesSorted: the enumeration helper itself is sorted and
// round-trips through ScenarioByName.
func TestScenarioNamesSorted(t *testing.T) {
	names := perfskel.ScenarioNames()
	if len(names) != 6 {
		t.Fatalf("ScenarioNames = %v, want 6 names", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("ScenarioNames not sorted: %v", names)
		}
	}
	for _, n := range names {
		if _, err := perfskel.ScenarioByName(n, 4); err != nil {
			t.Errorf("ScenarioByName(%q) = %v", n, err)
		}
	}
}
