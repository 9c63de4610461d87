package skeleton

import (
	"errors"
	"math"
	"testing"
)

// KForTime is the single K-derivation authority: BuildForTime and the
// public trace-for-time construction path both delegate to it. The cases
// pin the rounding behaviour at the half-way boundaries where two
// hand-rolled derivations historically could disagree (math.Round rounds
// half away from zero; a truncating int() would not).
func TestKForTime(t *testing.T) {
	cases := []struct {
		appTime, target float64
		want            int
	}{
		{10, 5, 2},
		{10, 4, 3},     // 2.5 rounds half away from zero, up to 3
		{10, 2.857, 4}, // 3.5004: just above the boundary
		{7, 2, 4},      // 3.5 rounds up to 4
		{10, 20, 1},    // sub-1 ratios clamp to K=1
		{10, 1e9, 1},
		{0.5, 0.2, 3}, // 2.5 again, fractional times
	}
	for _, c := range cases {
		got, err := KForTime(c.appTime, c.target)
		if err != nil {
			t.Errorf("KForTime(%v, %v): %v", c.appTime, c.target, err)
			continue
		}
		if got != c.want {
			t.Errorf("KForTime(%v, %v) = %d, want %d", c.appTime, c.target, got, c.want)
		}
	}
	for _, bad := range []struct{ appTime, target float64 }{
		{10, 0},
		{10, -1},
		// Targets whose ratio no int can hold, or that are not numbers.
		{100, 1e-300},
		{100, math.NaN()},
		{100, math.Inf(1)},
		{math.NaN(), 1},
		{math.Inf(1), 1},
	} {
		if _, err := KForTime(bad.appTime, bad.target); !errors.Is(err, ErrBadK) {
			t.Errorf("KForTime(%v, %v): err %v, want ErrBadK", bad.appTime, bad.target, err)
		}
	}
}

// BuildForTime must agree with KForTime at the rounding boundary.
func TestBuildForTimeUsesKForTime(t *testing.T) {
	sig := traceAndSign(t, 2, 5, iterApp)
	target := sig.AppTime / 2.5 // exactly on the round-half boundary
	prog, err := BuildForTime(sig, target)
	if err != nil {
		t.Fatal(err)
	}
	want, err := KForTime(sig.AppTime, target)
	if err != nil {
		t.Fatal(err)
	}
	if prog.K != want {
		t.Fatalf("BuildForTime chose K=%d, KForTime says %d", prog.K, want)
	}
	if want != 3 {
		t.Fatalf("boundary case should derive K=3 (round 2.5 away from zero), got %d", want)
	}
	if _, err := BuildForTime(sig, 0); err == nil {
		t.Error("want error for non-positive target")
	}
}
