package skeleton

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
	"perfskel/internal/nas"
	"perfskel/internal/signature"
	"perfskel/internal/trace"
)

// buildFromTraceReference is a verbatim copy of the threshold search
// BuildFromTrace ran with one Builder per call: every threshold of
// signature.Thresholds(0) is built, scaled and checked in order. The
// shared-ladder search must reproduce it bit for bit.
func buildFromTraceReference(tr *trace.Trace, k int, opts Options) (*Program, *signature.Signature, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("skeleton: scaling factor K must be >= 1, got %d", k)
	}
	target := float64(k) / 2
	var bestP *Program
	var bestS *signature.Signature
	var lastErr error
	b, err := signature.NewBuilder(tr)
	if err != nil {
		return nil, nil, err
	}
	for _, t := range signature.Thresholds(0) {
		sig := b.At(t)
		prog, err := BuildOpts(sig, k, opts)
		if err != nil {
			return nil, nil, err
		}
		if cerr := prog.Consistent(); cerr == nil {
			if sig.Ratio >= target {
				sig.TargetMet = true
				return prog, sig, nil
			}
			if bestS == nil || sig.Ratio > bestS.Ratio {
				bestP, bestS = prog, sig
			}
		} else {
			lastErr = cerr
		}
	}
	if bestP != nil {
		bestS.TargetMet = true
		return bestP, bestS, nil
	}
	return nil, nil, fmt.Errorf("skeleton: no similarity threshold yields a consistent skeleton (K=%d): %w", k, lastErr)
}

// searchKs and searchModes span the pinned grid: every scaling factor
// serve-mix requests plus K = 1, under both communication scale modes.
var (
	searchKs    = []int{1, 2, 4, 8, 16, 32}
	searchModes = []ScaleMode{ByteScale, TimeScale}
)

// nasTrace traces a NAS app at class S on a dedicated testbed.
func nasTrace(t testing.TB, app string, ranks int) *trace.Trace {
	t.Helper()
	fn, err := nas.App(app, nas.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(ranks)
	dur, err := mpi.Run(cluster.Build(cluster.Testbed(ranks), cluster.Dedicated()), ranks, mpi.Config{}, rec, fn)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Finish(dur)
}

// buildFingerprint is everything a construction returns, in bytes: the
// written program and signature, and the threshold, ratio and TargetMet
// bits.
func buildFingerprint(t testing.TB, prog *Program, sig *signature.Signature, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	var p, s bytes.Buffer
	if err := prog.Write(&p); err != nil {
		t.Fatal(err)
	}
	if err := sig.Write(&s); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("program %s\nsignature %s\nthreshold %#x ratio %#x met %v",
		p.Bytes(), s.Bytes(), math.Float64bits(sig.Threshold), math.Float64bits(sig.Ratio), sig.TargetMet)
}

// TestBuildFromTraceMatchesReference pins BuildFromTrace to the
// reference search on all 8 NAS apps at class S on 4, 8 and 16 ranks,
// for every K in searchKs under both scale modes. The grid includes
// the fallback cells where no threshold reaches Q = K/2 (EP at K = 8
// and 32, IS and FT at K = 32); the test requires that it does.
func TestBuildFromTraceMatchesReference(t *testing.T) {
	var fallbacks atomic.Int64
	t.Run("grid", func(t *testing.T) {
		for _, app := range nas.AllBenchmarks() {
			t.Run(app, func(t *testing.T) {
				t.Parallel()
				for _, ranks := range []int{4, 8, 16} {
					tr := nasTrace(t, app, ranks)
					for _, k := range searchKs {
						for _, mode := range searchModes {
							opts := Options{Mode: mode}
							rp, rs, rerr := buildFromTraceReference(tr, k, opts)
							want := buildFingerprint(t, rp, rs, rerr)
							gp, gs, gerr := BuildFromTrace(tr, k, opts)
							if got := buildFingerprint(t, gp, gs, gerr); got != want {
								t.Errorf("p=%d K=%d mode=%d: search differs from the reference\ngot:  %.300s\nwant: %.300s",
									ranks, k, mode, got, want)
							}
							if rerr == nil && rs.Ratio < float64(k)/2 {
								fallbacks.Add(1)
							}
						}
					}
				}
			})
		}
	})
	if fallbacks.Load() == 0 {
		t.Error("no cell took the fallback path; the grid no longer covers it")
	}
}

// TestLadderSharedAcrossK runs the K-searches of one trace over one
// shared ladder, in shuffled K order from two goroutines at once, and
// requires every result to equal the reference search's. Run it under
// -race: the ladder's builder is shared by both goroutines.
func TestLadderSharedAcrossK(t *testing.T) {
	for _, app := range []string{"CG", "EP", "FT", "MG"} {
		tr := nasTrace(t, app, 4)
		want := make(map[int]string)
		for _, k := range searchKs {
			p, s, err := buildFromTraceReference(tr, k, Options{})
			want[k] = buildFingerprint(t, p, s, err)
		}
		l, err := signature.NewLadder(tr)
		if err != nil {
			t.Fatal(err)
		}
		orders := [][]int{{32, 1, 8, 2, 16, 4}, {4, 16, 2, 32, 8, 1}}
		got := make([]map[int]string, len(orders))
		var wg sync.WaitGroup
		for g, ks := range orders {
			got[g] = make(map[int]string)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, k := range ks {
					p, s, err := BuildFromLadder(l, k, Options{})
					got[g][k] = buildFingerprint(t, p, s, err)
				}
			}()
		}
		wg.Wait()
		for g := range orders {
			for _, k := range searchKs {
				if got[g][k] != want[k] {
					t.Errorf("%s K=%d (goroutine %d): shared ladder differs from the reference\ngot:  %.300s\nwant: %.300s",
						app, k, g, got[g][k], want[k])
				}
			}
		}
	}
}

// TestLadderSignaturesAreCopies checks that setting TargetMet on one
// returned signature changes neither another search's signature at the
// same threshold nor the ladder's own.
func TestLadderSignaturesAreCopies(t *testing.T) {
	l, err := signature.NewLadder(nasTrace(t, "CG", 4))
	if err != nil {
		t.Fatal(err)
	}
	_, a, err := BuildFromLadder(l, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := BuildFromLadder(l, 2, Options{Mode: TimeScale})
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.Threshold != b.Threshold {
		t.Fatalf("want two copies of one threshold's signature, got %p (%v) and %p (%v)", a, a.Threshold, b, b.Threshold)
	}
	a.TargetMet = false
	if !b.TargetMet {
		t.Error("clearing TargetMet on one signature cleared it on another")
	}
	for i := range l.Len() {
		if s := l.At(i); s == a || s == b || s.TargetMet {
			t.Errorf("threshold %d: the ladder handed out its own signature or had it changed", i)
		}
	}
}
