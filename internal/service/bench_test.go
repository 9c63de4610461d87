package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// benchPost issues one predict request and fails the benchmark on any
// non-200.
func benchPost(b *testing.B, url, body string) {
	b.Helper()
	resp, err := http.Post(url+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkServiceCold measures the full cold path: a fresh server per
// iteration, so every request simulates (three simulations: dedicated
// app, dedicated skeleton, skeleton under the scenario) and encodes.
func BenchmarkServiceCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ts := httptest.NewServer(New(Config{Workers: 2}))
		b.StartTimer()
		benchPost(b, ts.URL, predictBody)
		b.StopTimer()
		ts.Close()
		b.StartTimer()
	}
}

// BenchmarkServiceStaticCold measures a static request on a fresh
// server: the cold load and type check of the NAS models package and
// the standard library it reaches, static synthesis, and the skeleton
// simulations. Static requests bypass the body cache and build a fresh
// loader, so this is also what every repeat of the request costs.
func BenchmarkServiceStaticCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ts := httptest.NewServer(New(Config{Workers: 2}))
		b.StartTimer()
		benchPost(b, ts.URL, staticPredictBody)
		b.StopTimer()
		ts.Close()
		b.StartTimer()
	}
}

// BenchmarkServiceWarm measures the cache-hit path: one server, the
// same request repeated, every response after the first served from the
// response-body cache.
func BenchmarkServiceWarm(b *testing.B) {
	ts := httptest.NewServer(New(Config{Workers: 2}))
	defer ts.Close()
	benchPost(b, ts.URL, predictBody) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL, predictBody)
	}
}

// BenchmarkServiceWarmParallel measures warm throughput under client
// concurrency — the sustained RPS ceiling of the cache-hit path.
func BenchmarkServiceWarmParallel(b *testing.B) {
	ts := httptest.NewServer(New(Config{Workers: 2}))
	defer ts.Close()
	benchPost(b, ts.URL, predictBody) // prime
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchPost(b, ts.URL, predictBody)
		}
	})
}
