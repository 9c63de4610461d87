package main

import (
	"reflect"
	"testing"
)

func TestStreamSameSeedSameStream(t *testing.T) {
	if !reflect.DeepEqual(serveStream(7, 0), serveStream(7, 0)) {
		t.Fatal("seed 7 gave two different streams")
	}
	if !reflect.DeepEqual(sweepApps(7), sweepApps(7)) {
		t.Fatal("seed 7 gave two different grids")
	}
	if !reflect.DeepEqual(scaleCells(7), scaleCells(7)) {
		t.Fatal("seed 7 gave two different rank-scale orders")
	}
}

func TestStreamDifferentSeedDifferentStream(t *testing.T) {
	if reflect.DeepEqual(serveStream(7, 0), serveStream(8, 0)) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
	if reflect.DeepEqual(serveStream(7, 0), serveStream(7, 1)) {
		t.Fatal("rounds 0 and 1 of seed 7 gave the same stream")
	}
	if reflect.DeepEqual(sweepApps(7), sweepApps(8)) {
		t.Fatal("seeds 7 and 8 gave the same grid order")
	}
}

// TestStreamShape pins the stream's shape for every seed: the whole
// universe once, a quarter exact repeats, about a tenth measured, and
// enough cold requests for a p95 with ten samples beyond it.
func TestStreamShape(t *testing.T) {
	universe := len(serveUniverse())
	for seed := int64(1); seed <= 20; seed++ {
		shape := streamShape(serveStream(seed, 0))
		if got := int(shape["distinct_keys"]); got != universe {
			t.Errorf("seed %d: %d distinct keys, want %d", seed, got, universe)
		}
		if got := shape["repeat_fraction"]; got != repeatShare {
			t.Errorf("seed %d: repeat fraction %v, want %v", seed, got, repeatShare)
		}
		if got := shape["measure_fraction"]; got < 0.05 || got > 0.15 {
			t.Errorf("seed %d: measure fraction %v, want about 0.1", seed, got)
		}
	}
	// Every distinct request is cold once, and the cold p95 needs ten
	// samples beyond it.
	if _, _, err := percentile(make([]float64, universe), 0.95); err != nil {
		t.Errorf("%d cold requests cannot carry a p95: %v", universe, err)
	}
}

// TestMeasuredSetSeedIndependent keeps prediction_error_pct a constant
// of the program: which requests measure must not depend on the seed.
func TestMeasuredSetSeedIndependent(t *testing.T) {
	measured := func(seed int64) map[string]bool {
		m := map[string]bool{}
		for _, r := range serveStream(seed, 0) {
			if r.Measure {
				m[requestKey(r)] = true
			}
		}
		return m
	}
	if !reflect.DeepEqual(measured(3), measured(4)) {
		t.Fatal("seeds 3 and 4 measure different requests")
	}
}
