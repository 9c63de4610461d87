package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Mean(xs) != 2.5 {
		t.Errorf("mean = %v", Mean(xs))
	}
	if Min(xs) != 1 || Max(xs) != 4 {
		t.Errorf("min/max = %v/%v", Min(xs), Max(xs))
	}
	if Median(xs) != 2.5 {
		t.Errorf("median = %v", Median(xs))
	}
	if Median([]float64{5, 1, 3}) != 3 {
		t.Errorf("odd median = %v", Median([]float64{5, 1, 3}))
	}
}

func TestEmptySlices(t *testing.T) {
	if Mean(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 || Median(nil) != 0 {
		t.Error("empty-slice helpers must return 0")
	}
}

func TestOrderingProperties(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			// Keep magnitudes summable so the mean cannot overflow.
			xs[i] = math.Mod(x, 1e12)
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi, m := Min(xs), Max(xs), Mean(xs)
		return lo <= hi && lo <= m+1e-9 && m <= hi+1e-9 && lo <= Median(xs) && Median(xs) <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
