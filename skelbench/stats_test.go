package main

import (
	"net/http"
	"testing"

	"perfskel/internal/service"
)

func TestPercentileReportsCountAndRefusesThinTails(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, n, err := percentile(xs, 0.95)
	if err != nil || n != 200 || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, n=%d, err=%v; want 190, 200, nil", v, n, err)
	}
	// 199 samples leave only 9 beyond the p95.
	if _, n, err := percentile(xs[:199], 0.95); err == nil || n != 199 {
		t.Fatalf("p95 of 199 samples: n=%d err=%v; want a refusal with n=199", n, err)
	}
	if _, _, err := percentile(xs[:20], 0.5); err != nil {
		t.Fatalf("p50 of 20 samples has 10 beyond it and must be reported: %v", err)
	}
	if _, _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if _, _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples must be refused")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {nil, 0}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestRefusalsAndWrongOutputsAreFailures checks that refused and wrong
// replies stay in attempted as failures and never become latency samples.
func TestRefusalsAndWrongOutputsAreFailures(t *testing.T) {
	req := service.Request{App: "CG", Class: "S", Ranks: 4, Scenario: "combined", K: 8}
	key := requestKey(req)
	good := []byte(`{"prediction":{"predicted_s":1}}` + "\n")
	exp := expected{"serve-mix": {key: bodyDigest(good)}}
	agg := newServeAgg(exp)
	agg.add(reply{req: req, status: http.StatusOK, body: good, latency: 0.1})
	agg.add(reply{req: req, status: http.StatusOK, body: good, hit: true, latency: 0.001})
	agg.add(reply{req: req, status: http.StatusTooManyRequests, latency: 0.001})
	agg.add(reply{req: req, status: http.StatusServiceUnavailable, latency: 0.001})
	agg.add(reply{req: req, status: http.StatusOK, body: []byte(`{"prediction":{"predicted_s":2}}`), latency: 0.1})
	agg.add(reply{req: req, status: http.StatusInternalServerError, latency: 0.1})
	if agg.attempted != 6 || agg.failed != 4 || agg.rejected != 2 {
		t.Fatalf("attempted=%d failed=%d rejected=%d; want 6, 4, 2", agg.attempted, agg.failed, agg.rejected)
	}
	if len(agg.cold) != 1 || len(agg.warm) != 1 {
		t.Fatalf("latency samples cold=%d warm=%d; want 1 and 1: failures must not be samples", len(agg.cold), len(agg.warm))
	}
}

// TestWarmBodyMustEqualCold fails a warm reply whose body differs from
// the first body for its key, even when both match some digest.
func TestWarmBodyMustEqualCold(t *testing.T) {
	req := service.Request{App: "CG", Class: "S", Ranks: 4, Scenario: "combined", K: 8}
	agg := newServeAgg(nil) // no committed digests: only the cold/warm check applies
	agg.add(reply{req: req, status: http.StatusOK, body: []byte(`{"k":8}`)})
	agg.add(reply{req: req, status: http.StatusOK, hit: true, body: []byte(`{"k":8} `)})
	if agg.failed != 1 {
		t.Fatalf("failed=%d; want the differing warm body counted as a failure", agg.failed)
	}
}

func TestDigestCheckCountsMismatches(t *testing.T) {
	exp := expected{"rank-scale": {"a": digest(1.0)}}
	var ty tally
	exp.check(&ty, "rank-scale", "a", digest(1.0))
	exp.check(&ty, "rank-scale", "a", digest(1.0000000000000002)) // one ulp off
	exp.check(&ty, "rank-scale", "b", digest(1.0))                // no committed digest
	if ty.attempted != 3 || ty.failed != 2 {
		t.Fatalf("attempted=%d failed=%d; want 3 and 2", ty.attempted, ty.failed)
	}
}

func TestRoundsStopsBeforeOverrun(t *testing.T) {
	n := 0
	if err := rounds(10, func() (float64, error) { n++; return 4, nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 { // a third 4s round would end at 12s
		t.Fatalf("ran %d rounds of 4s in a 10s budget, want 2", n)
	}
	n = 0
	if err := rounds(1, func() (float64, error) { n++; return 5, nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 { // the first round always runs, even past the budget
		t.Fatalf("ran %d rounds of 5s in a 1s budget, want exactly 1", n)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "bench.replay", Start: 0, End: 10, Parent: -1},
		{Name: "mpi.RunContext", Start: 0, End: 6, Parent: 0},
		{Name: "skeleton.BuildFromTrace", Start: 6, End: 9, Parent: 0},
		{Name: "service.request", Start: 0, End: 50, Parent: -1}, // another root
	}}
	self := tr.selfTimes(0)
	if self["bench"] != 1 || self["mpi"] != 6 || self["skeleton"] != 3 || self["service"] != 0 {
		t.Fatalf("self times %v", self)
	}
}
