package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"perfskel/internal/analysis"
	"perfskel/internal/analysis/commgraph"
	"perfskel/internal/analysis/staticsig"
	"perfskel/internal/campaign"
	"perfskel/internal/cluster"
	"perfskel/internal/nas"
	"perfskel/internal/predict"
	"perfskel/internal/skeleton"
)

// predictBody is the canonical test request: CG class S at 4 ranks,
// K=8, under CPU sharing on one node. Cold it costs three simulations
// (dedicated app, dedicated skeleton, skeleton under the scenario).
const predictBody = `{"app":"CG","class":"S","ranks":4,"scenario":"cpu-one-node","k":8}`

// staticPredictBody is predictBody answered without a trace: the
// skeleton comes from a static synthesis of the NAS models package.
const staticPredictBody = `{"app":"CG","class":"S","ranks":4,"scenario":"cpu-one-node","k":8,"source_pkg":"perfskel/internal/nas"}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /predict: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

// TestConcurrentIdenticalRequests: N concurrent identical requests
// produce one computation (exactly one cache miss, and no more engine
// simulations than a single request on a fresh server), and every body
// — including the fresh server's cold one — is byte-identical.
func TestConcurrentIdenticalRequests(t *testing.T) {
	// Baseline: one request on its own server.
	sA, tsA := newTestServer(t, Config{Workers: 2})
	respA, coldBody := post(t, tsA, predictBody)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("baseline request: %d %s", respA.StatusCode, coldBody)
	}
	if got := respA.Header.Get("X-Skeletond-Cache"); got != "miss" {
		t.Fatalf("baseline cache header = %q, want miss", got)
	}
	baselineSims := sA.Engine().Stats().Sims

	// Concurrency: N identical requests against a second server.
	sB, tsB := newTestServer(t, Config{Workers: 2})
	const n = 8
	bodies := make([][]byte, n)
	headers := make([]string, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := post(t, tsB, predictBody)
			bodies[i], headers[i], codes[i] = b, resp.Header.Get("X-Skeletond-Cache"), resp.StatusCode
		}(i)
	}
	wg.Wait()

	misses := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], coldBody) {
			t.Fatalf("request %d body differs from the cold baseline:\n%s\nvs\n%s", i, bodies[i], coldBody)
		}
		if headers[i] == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d cache misses across %d identical concurrent requests, want exactly 1", misses, n)
	}
	if got := sB.Engine().Stats().Sims; got != baselineSims {
		t.Fatalf("%d simulations for %d concurrent identical requests, want %d (one request's worth)", got, n, baselineSims)
	}
}

// TestWarmHitByteIdentical: a repeat of a served request is a cache hit
// with a byte-identical body.
func TestWarmHitByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	r1, cold := post(t, ts, predictBody)
	r2, warm := post(t, ts, predictBody)
	if r1.StatusCode != http.StatusOK || r2.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d, %d", r1.StatusCode, r2.StatusCode)
	}
	if h := r2.Header.Get("X-Skeletond-Cache"); h != "hit" {
		t.Fatalf("second request cache header = %q, want hit", h)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm body differs from cold:\n%s\nvs\n%s", warm, cold)
	}
}

// TestMeasuredPredict pins a successful "measure": true request: the
// prediction equals the measured prediction an independent campaign
// engine makes for the same cell, the profile is that skeleton run's
// statistics, and a repeat is a byte-identical cache hit.
func TestMeasuredPredict(t *testing.T) {
	const body = `{"app":"CG","class":"S","ranks":4,"scenario":"cpu-one-node","k":8,"measure":true}`
	_, ts := newTestServer(t, Config{Workers: 2})
	r1, cold := post(t, ts, body)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("measured request: %d %s", r1.StatusCode, cold)
	}
	r2, warm := post(t, ts, body)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("repeat measured request: %d %s", r2.StatusCode, warm)
	}
	if h := r2.Header.Get("X-Skeletond-Cache"); h != "hit" {
		t.Errorf("repeat cache header = %q, want hit", h)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm body differs from cold:\n%s\nvs\n%s", warm, cold)
	}
	var out Response
	if err := json.Unmarshal(cold, &out); err != nil {
		t.Fatalf("decode response: %v", err)
	}

	app, err := campaign.NASApp("CG", nas.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := cluster.ByName("cpu-one-node", 4)
	if err != nil {
		t.Fatal(err)
	}
	eng := campaign.New(campaign.Config{Workers: 1})
	preds, err := eng.PredictAll(campaign.Grid{
		Apps: []campaign.App{app}, NRanks: 4,
		Scenarios: []cluster.Scenario{sc}, Ks: []int{8}, MeasureApp: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Prediction != preds[0] {
		t.Errorf("measured prediction\n got %+v\nwant %+v", out.Prediction, preds[0])
	}
	if !out.Prediction.Measured {
		t.Error("prediction not marked measured")
	}
	skel, err := eng.Run(campaign.Cell{App: app, NRanks: 4, Scenario: sc, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	gotProf, err := json.Marshal(out.Profile)
	if err != nil {
		t.Fatal(err)
	}
	wantProf, err := json.Marshal(skel.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotProf, wantProf) {
		t.Errorf("profile\n got %s\nwant %s", gotProf, wantProf)
	}
}

// TestDeadlineAbortsSimulation: a 1ms budget expires mid-simulation and
// the request fails with 504; with a single worker, the very next
// request succeeding proves the aborted one released its slot and left
// no poisoned cache entry behind.
func TestDeadlineAbortsSimulation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	req := `{"app":"CG","class":"S","ranks":4,"scenario":"cpu-one-node","k":8,"timeout_ms":1}`
	resp, body := post(t, ts, req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline request: %d %s, want 504", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Status != http.StatusGatewayTimeout {
		t.Fatalf("error body %s (err %v), want status 504 JSON", body, err)
	}

	resp2, body2 := post(t, ts, predictBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("request after aborted one: %d %s, want 200", resp2.StatusCode, body2)
	}
	if got := s.inflight.Load(); got != 0 {
		t.Fatalf("inflight = %d after all requests finished, want 0", got)
	}
}

// TestQueueFullFastReject: with one worker slot held and the wait queue
// full, a further request is rejected immediately with 429 instead of
// blocking.
func TestQueueFullFastReject(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	s.sem <- struct{}{} // hold the only worker slot

	// Fill the one queue seat with a request that must compute.
	queuedDone := make(chan struct{})
	go func() {
		defer close(queuedDone)
		resp, b := post(t, ts, predictBody)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("queued request: %d %s, want 200 after slot frees", resp.StatusCode, b)
		}
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 }, "request to enter the wait queue")

	// A different request (distinct cache label) now finds the queue full.
	over := `{"app":"MG","class":"S","ranks":4,"scenario":"cpu-one-node","k":8}`
	start := time.Now()
	resp, body := post(t, ts, over)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue request: %d %s, want 429", resp.StatusCode, body)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("429 took %v; rejection must not wait for a slot", d)
	}

	<-s.sem // free the slot; the queued request proceeds
	<-queuedDone
}

// TestGracefulDrain: Shutdown lets the in-flight request finish with
// 200 while new predictions and readiness probes get 503; liveness
// stays 200 throughout.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	inflightDone := make(chan struct{})
	go func() {
		defer close(inflightDone)
		resp, b := post(t, ts, predictBody)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("in-flight request finished %d %s, want 200", resp.StatusCode, b)
		}
	}()
	waitFor(t, func() bool { return s.inflight.Load() == 1 }, "request to start computing")

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	waitFor(t, func() bool { return s.draining.Load() }, "drain to start")

	resp, body := post(t, ts, predictBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: %d %s, want 503", resp.StatusCode, body)
	}
	if code := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", code)
	}
	if code := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200", code)
	}

	<-inflightDone
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestErrorContract pins the request-validation half of the HTTP error
// mapping: every caller fault is a 400 (with the taxonomy's enumerated
// valid names where applicable), transport faults get their specific
// codes.
func TestErrorContract(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name     string
		body     string
		want     int
		contains string
	}{
		{"missing app", `{"class":"S","ranks":4,"scenario":"dedicated","k":8}`, 400, `missing "app"`},
		{"zero ranks", `{"app":"CG","class":"S","ranks":0,"scenario":"dedicated","k":8}`, 400, `"ranks" must be in`},
		{"huge ranks", `{"app":"CG","class":"S","ranks":9999,"scenario":"dedicated","k":8}`, 400, `"ranks" must be in`},
		{"k and target both", `{"app":"CG","class":"S","ranks":4,"scenario":"dedicated","k":8,"target_time_s":1}`, 400, `exactly one of`},
		{"k and target neither", `{"app":"CG","class":"S","ranks":4,"scenario":"dedicated"}`, 400, `exactly one of`},
		{"negative k", `{"app":"CG","class":"S","ranks":4,"scenario":"dedicated","k":-2}`, 400, "bad scaling factor"},
		{"unrepresentable target", `{"app":"CG","class":"S","ranks":4,"scenario":"dedicated","target_time_s":1e-300}`, 400, "bad scaling factor"},
		{"unknown scenario", `{"app":"CG","class":"S","ranks":4,"scenario":"bogus","k":8}`, 400, "valid: combined, cpu-all-nodes, cpu-one-node, dedicated, net-all-links, net-one-link"},
		{"unknown app", `{"app":"ZZ","class":"S","ranks":4,"scenario":"dedicated","k":8}`, 400, "valid: BT, CG, EP, FT, IS, LU, MG, SP"},
		{"unknown mode", `{"app":"CG","class":"S","ranks":4,"scenario":"dedicated","k":8,"mode":"warp"}`, 400, "valid: byte, time"},
		{"measure static", `{"app":"CG","class":"S","ranks":4,"scenario":"dedicated","k":8,"source_pkg":"perfskel/internal/nas","measure":true}`, 400, "has no program body"},
		{"malformed json", `{"app":`, 400, "decode request"},
		{"unknown field", `{"app":"CG","klass":"S"}`, 400, "decode request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d %s, want %d", resp.StatusCode, body, tc.want)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("non-JSON error body %s: %v", body, err)
			}
			if eb.Status != tc.want {
				t.Fatalf("body status %d, want %d", eb.Status, tc.want)
			}
			if !strings.Contains(eb.Error, tc.contains) {
				t.Fatalf("error %q does not mention %q", eb.Error, tc.contains)
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/predict")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /predict = %d, want 405", resp.StatusCode)
		}
	})
}

// TestTargetTimeDerivesK: a target_time_s request derives K from the
// dedicated baseline and reports the effective factor.
func TestTargetTimeDerivesK(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := post(t, ts, `{"app":"CG","class":"S","ranks":4,"scenario":"cpu-one-node","target_time_s":0.1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("target-time request: %d %s", resp.StatusCode, body)
	}
	var out Response
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if out.K < 1 {
		t.Fatalf("effective K = %d, want >= 1", out.K)
	}
	if out.Prediction.K != out.K {
		t.Fatalf("prediction K %d != effective K %d", out.Prediction.K, out.K)
	}
	if out.Prediction.Predicted <= 0 {
		t.Fatalf("predicted time %v, want > 0", out.Prediction.Predicted)
	}
	if out.Profile == nil || out.Profile.Events == 0 {
		t.Fatalf("response profile missing or empty: %+v", out.Profile)
	}
}

// TestMetricsEndpoint: after traffic, /metrics reports request counts,
// the latency histogram and the campaign cache ratio.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	post(t, ts, predictBody)
	post(t, ts, predictBody)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	text := string(b)
	for _, want := range []string{
		"http_requests_total",
		"http_request_seconds",
		"predict_cache_hits_total",
		"predict_cache_misses_total",
		"campaign_cache_hit_ratio",
		"campaign_sims_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

func get(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestStaticPredict pins a successful trace-free /predict: the
// prediction equals one assembled here from an independent static
// synthesis, the campaign engine's skeleton runs and predict.Predict,
// with the synthesized signature's modeled time as the dedicated
// baseline. Static requests bypass the body cache, so a repeat is a
// miss with a byte-identical body. A target-time request derives K from
// that same modeled time.
func TestStaticPredict(t *testing.T) {
	const body = staticPredictBody
	_, ts := newTestServer(t, Config{Workers: 2})
	r1, cold := post(t, ts, body)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("static request: %d %s", r1.StatusCode, cold)
	}
	r2, warm := post(t, ts, body)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("repeat static request: %d %s", r2.StatusCode, warm)
	}
	for i, r := range []*http.Response{r1, r2} {
		if h := r.Header.Get("X-Skeletond-Cache"); h != "miss" {
			t.Errorf("static request %d cache header = %q, want miss", i+1, h)
		}
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("repeat body differs:\n%s\nvs\n%s", warm, cold)
	}
	var out Response
	if err := json.Unmarshal(cold, &out); err != nil {
		t.Fatalf("decode response: %v", err)
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load("perfskel/internal/nas")
	if err != nil {
		t.Fatal(err)
	}
	par, err := staticsig.Extract(commgraph.Source{Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info}, "CG")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := par.Instantiate(4, "S")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := cluster.ByName("cpu-one-node", 4)
	if err != nil {
		t.Fatal(err)
	}
	eng := campaign.New(campaign.Config{Workers: 1})
	cell := campaign.Cell{
		App:    campaign.StaticApp(&campaign.StaticSig{Key: inst.Key, Sig: inst.Sig}),
		NRanks: 4, Scenario: sc, K: 8,
	}
	skelScen, err := eng.Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	dedCell := cell
	dedCell.Scenario = cluster.Dedicated()
	skelDed, err := eng.Run(dedCell)
	if err != nil {
		t.Fatal(err)
	}
	appTime := inst.Sig.AppTime
	want := campaign.Prediction{
		App: cell.App.ID, NRanks: 4, K: 8, Scenario: sc.Name,
		AppDedicated:  appTime,
		SkelDedicated: skelDed.Time,
		SkelScenario:  skelScen.Time,
		Predicted:     predict.Predict(skelScen.Time, predict.Ratio(appTime, skelDed.Time)),
	}
	if out.Prediction != want {
		t.Errorf("static prediction\n got %+v\nwant %+v", out.Prediction, want)
	}
	if out.K != 8 {
		t.Errorf("effective K = %d, want 8", out.K)
	}
	if !strings.HasSuffix(out.Cache.Key, "|src="+inst.SourceHash) {
		t.Errorf("cache key %q does not end in the source hash %s", out.Cache.Key, inst.SourceHash)
	}

	const target = 0.1
	wantK, err := skeleton.KForTime(appTime, target)
	if err != nil {
		t.Fatal(err)
	}
	rt, tb := post(t, ts, fmt.Sprintf(`{"app":"CG","class":"S","ranks":4,"scenario":"cpu-one-node","target_time_s":%g,"source_pkg":"perfskel/internal/nas"}`, target))
	if rt.StatusCode != http.StatusOK {
		t.Fatalf("static target-time request: %d %s", rt.StatusCode, tb)
	}
	var tout Response
	if err := json.Unmarshal(tb, &tout); err != nil {
		t.Fatalf("decode target-time response: %v", err)
	}
	if tout.K != wantK || tout.Prediction.K != wantK {
		t.Errorf("target-time K = %d (prediction K %d), want KForTime(%g, %g) = %d",
			tout.K, tout.Prediction.K, appTime, target, wantK)
	}
	if tout.Prediction.AppDedicated != appTime {
		t.Errorf("target-time dedicated baseline = %g, want the modeled app time %g", tout.Prediction.AppDedicated, appTime)
	}
}
