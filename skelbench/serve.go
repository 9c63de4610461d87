package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"perfskel/internal/cluster"
	"perfskel/internal/nas"
	"perfskel/internal/service"
)

// serve-mix: the real skeletond binary on loopback, driven closed-loop
// over two connections by a seeded /predict stream (see serveStream).
// Warm hits exercise the response cache; cold requests whose baselines
// are memoized pay skeleton runs; first-touch cold requests pay the
// application run and the skeleton build too. The loop is closed because
// skeletond's callers — scripts and CI smoke checks — wait for each
// reply. Static source requests are left out: they load host paths and
// bypass the response cache.

// requestKey identifies a request's response: two requests with equal
// keys must get byte-identical bodies.
func requestKey(r service.Request) string {
	return fmt.Sprintf("nas:%s:%s|p=%d|%s|k=%d|measure=%t", r.App, r.Class, r.Ranks, r.Scenario, r.K, r.Measure)
}

// server is a running skeletond process.
type server struct {
	cmd    *exec.Cmd
	base   string
	done   chan error
	stderr bytes.Buffer
}

// startServer boots skeletond on a free loopback port and waits for its
// first /readyz 200. It returns the boot time: process start to ready.
func startServer(bin string) (*server, float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{base: "http://" + addr, done: make(chan error, 1)}
	s.cmd = exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(workers))
	s.cmd.Stderr = &s.stderr
	// The kernel kills skeletond if the benchmark dies first.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start skeletond: %w", err)
	}
	go func() { s.done <- s.cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return s, time.Since(start).Seconds(), nil
			}
		}
		select {
		case err := <-s.done:
			return nil, 0, fmt.Errorf("skeletond exited before ready: %v: %s", err, s.stderr.String())
		case <-time.After(100 * time.Microsecond):
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("skeletond not ready after 30s")
		}
	}
}

// stop drains skeletond with SIGTERM and waits for it to exit, killing
// it if the drain hangs.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("skeletond exit: %v: %s", err, s.stderr.String())
		}
		return nil
	case <-time.After(40 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("skeletond did not drain")
	}
}

// reply is one /predict exchange as the client saw it.
type reply struct {
	req     service.Request
	status  int
	hit     bool // X-Skeletond-Cache: hit
	body    []byte
	latency float64 // seconds
	done    float64 // completion, seconds since the stream started
	err     error
}

// drive sends stream closed-loop over `connections` connections: each
// connection sends its next request only once the previous reply is
// read. Requests leave in stream order. It returns the replies and the
// length of the window in which every connection was busy: from the
// start until the first connection found the stream exhausted. The
// ramp-down after it, when a connection idles while another finishes a
// long request, depends on where the seed put the long requests, not on
// the program. With tr set, each request gets a service.request span
// under parent.
func drive(base string, stream []service.Request, tr *tracer, parent int) ([]reply, float64) {
	replies := make([]reply, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	exits := make([]float64, connections)
	start := time.Now()
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// One connection per client, reused for every request this
			// loop sends.
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp, Timeout: 60 * time.Second}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					exits[c] = time.Since(start).Seconds()
					return
				}
				s := tr.begin(parent, "service.request", strconv.Itoa(i))
				replies[i] = post(client, base, stream[i])
				tr.end(s)
				replies[i].done = time.Since(start).Seconds()
			}
		}(c)
	}
	wg.Wait()
	window := exits[0]
	for _, e := range exits[1:] {
		window = min(window, e)
	}
	return replies, window
}

func post(client *http.Client, base string, req service.Request) reply {
	rep := reply{req: req}
	data, err := json.Marshal(req)
	if err != nil {
		rep.err = err
		return rep
	}
	start := time.Now()
	resp, err := client.Post(base+"/predict", "application/json", bytes.NewReader(data))
	if err != nil {
		rep.err = err
		return rep
	}
	rep.body, rep.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.latency = time.Since(start).Seconds()
	rep.status = resp.StatusCode
	rep.hit = resp.Header.Get("X-Skeletond-Cache") == "hit"
	return rep
}

// serveAgg checks replies and collects their latencies. Refused (429,
// 503), failed and wrong replies count as failed operations and never
// become latency samples.
type serveAgg struct {
	tally
	exp        expected
	cold, warm []float64
	rejected   int
	first      map[string][]byte  // key -> first body seen
	preds      map[string]float64 // key -> predicted seconds
	errPct     map[string]float64 // key -> |error| of measured requests
}

func newServeAgg(exp expected) *serveAgg {
	return &serveAgg{exp: exp, first: map[string][]byte{}, preds: map[string]float64{}, errPct: map[string]float64{}}
}

func (a *serveAgg) add(rep reply) {
	key := requestKey(rep.req)
	switch {
	case rep.err != nil:
		a.fail("%s: %v", key, rep.err)
		return
	case rep.status == http.StatusTooManyRequests || rep.status == http.StatusServiceUnavailable:
		a.rejected++
		a.fail("%s: refused with %d", key, rep.status)
		return
	case rep.status != http.StatusOK:
		a.fail("%s: status %d: %s", key, rep.status, bytes.TrimSpace(rep.body))
		return
	}
	if err := a.exp.verify("serve-mix", key, bodyDigest(rep.body)); err != nil {
		a.fail("%v", err)
		return
	}
	if prev, ok := a.first[key]; ok && !bytes.Equal(prev, rep.body) {
		a.fail("%s: body differs from the first body for the key", key)
		return
	}
	var resp service.Response
	if err := json.Unmarshal(rep.body, &resp); err != nil {
		a.fail("%s: decode body: %v", key, err)
		return
	}
	a.first[key] = rep.body
	a.preds[key] = resp.Prediction.Predicted
	if resp.Prediction.Measured {
		a.errPct[key] = math.Abs(resp.Prediction.ErrorPct)
	}
	if rep.hit {
		a.warm = append(a.warm, rep.latency)
	} else {
		a.cold = append(a.cold, rep.latency)
	}
	a.ok()
}

// latencies reports the cold p50 and p95 and the warm p50 in
// milliseconds; a percentile the helper refuses makes the run incorrect.
func (a *serveAgg) latencies(r *run, prefix string) {
	for _, q := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"cold_p50_ms", a.cold, 0.50},
		{"cold_p95_ms", a.cold, 0.95},
		{"warm_p50_ms", a.warm, 0.50},
	} {
		v, n, err := percentile(q.xs, q.p)
		if err != nil {
			a.problem("%s: %v", q.name, err)
		}
		r.set(prefix+q.name, 1000*v, "ms", n)
	}
}

func (a *serveAgg) errorPct() (float64, int) {
	var errs []float64
	for _, e := range a.errPct {
		errs = append(errs, e)
	}
	return median(errs), len(errs)
}

func runServe(o options) (*run, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	r := newRun()
	stream := serveStream(o.seed, 0)
	r.info["stream"] = streamShape(stream)
	r.info["input"] = "8 NAS apps at class S on 4/8/16 ranks, 5 scenarios, K in {2,4,8,16,32}"
	var boots []float64
	for i := 0; i < serveBoots; i++ {
		s, boot, err := startServer(o.skeletond)
		if err != nil {
			return nil, err
		}
		boots = append(boots, boot)
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	if o.trace {
		return r, serveTraced(o, r, exp, stream)
	}
	agg := newServeAgg(exp)
	var window float64
	inWindow, round := 0, 0
	var rss []float64
	err = rounds(o.seconds, func() (float64, error) {
		start := time.Now()
		s, boot, err := startServer(o.skeletond)
		if err != nil {
			return 0, err
		}
		boots = append(boots, boot)
		// Each round sends its own ordering of the same requests, so a
		// run averages over several schedules.
		replies, w := drive(s.base, serveStream(o.seed, round), nil, -1)
		round++
		window += w
		for _, rep := range replies {
			if rep.err == nil && rep.status == http.StatusOK && rep.done <= w {
				inWindow++
			}
		}
		m, rerr := peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
		rss = append(rss, m)
		if err := s.stop(); err != nil {
			return 0, err
		}
		if rerr != nil {
			return 0, rerr
		}
		for _, rep := range replies {
			agg.add(rep)
		}
		return time.Since(start).Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	agg.latencies(r, "predict_")
	r.tally = agg.tally
	e, n := agg.errorPct()
	r.set("setup_s", median(boots), "s", len(boots))
	r.set("predictions_per_s", float64(inWindow)/window, "1/s", inWindow)
	r.set("peak_rss_mb", median(rss), "MB", len(rss))
	r.set("prediction_error_pct", e, "%", n)
	r.info["rounds"] = round
	r.info["cold_requests"] = len(agg.cold)
	r.info["warm_requests"] = len(agg.warm)
	return r, nil
}

// serveTraced is serve-mix's -trace 1 run: the stream with a client span
// per request and a /metrics scrape, then the replay of every distinct
// request.
func serveTraced(o options, r *run, exp expected, stream []service.Request) error {
	tr := newTracer()
	s, _, err := startServer(o.skeletond)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root := tr.begin(-1, "bench.stream", "")
	replies, wall := drive(s.base, stream, tr, root)
	tr.end(root)
	runtime.ReadMemStats(&after)
	met, merr := scrape(s.base)
	if err := s.stop(); err != nil {
		return err
	}
	if merr != nil {
		return merr
	}
	setRuntime(r, before, after)
	agg := newServeAgg(exp)
	for _, rep := range replies {
		agg.add(rep)
	}
	agg.latencies(r, "service.")
	r.tally = agg.tally
	cold, warm := len(agg.cold), len(agg.warm)
	r.set("service.cold_requests", float64(cold), "count", 1)
	r.set("service.warm_requests", float64(warm), "count", 1)
	r.set("service.cache_hit_ratio", float64(warm)/float64(max(cold+warm, 1)), "ratio", cold+warm)
	r.set("service.rejected", float64(agg.rejected), "count", 1)
	serverMean := met["http_request_seconds.sum"] / met["http_request_seconds.n"]
	r.set("service.server_mean_ms", 1000*serverMean, "ms", int(met["http_request_seconds.n"]))
	r.set("service.client_overhead_ms", 1000*(tr.total("service.request")/float64(len(stream))-serverMean), "ms", len(stream))
	r.set("campaign.sims", met["campaign_sims_total"], "count", 1)
	r.set("campaign.hits", met["campaign_memory_hits"], "count", 1)
	r.set("campaign.misses", met["campaign_misses"], "count", 1)
	r.set("campaign.hit_ratio", met["campaign_cache_hit_ratio"], "ratio", 1)
	r.info["stream_wall_s"] = wall
	return tracedRun(o, r, tr, serveGroups(agg), agg.preds)
}

// serveGroups turns the distinct requests answered into replay groups:
// one per app and rank count, one cell per scaling factor, scenario and
// measure flag.
func serveGroups(agg *serveAgg) []group {
	byApp := map[string]*group{}
	var order []string
	for _, req := range serveUniverse() {
		key := requestKey(req)
		if _, ok := agg.preds[key]; !ok {
			continue
		}
		gid := fmt.Sprintf("nas:%s:%s/p%d", req.App, req.Class, req.Ranks)
		g, ok := byApp[gid]
		if !ok {
			fn, err := nas.App(req.App, nas.Class(req.Class))
			if err != nil {
				continue
			}
			g = &group{id: "nas:" + req.App + ":" + req.Class, fn: fn, nranks: req.Ranks}
			byApp[gid] = g
			order = append(order, gid)
		}
		sc, err := cluster.ByName(req.Scenario, req.Ranks)
		if err != nil {
			continue
		}
		g.cells = append(g.cells, cell{id: key, k: req.K, sc: sc, measure: req.Measure})
	}
	groups := make([]group, 0, len(order))
	for _, gid := range order {
		groups = append(groups, *byApp[gid])
	}
	return groups
}

// scrape reads skeletond's /metrics: counters and gauges by name, and
// each histogram's n and sum as "<name>.n" and "<name>.sum".
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
			continue
		}
		for _, kv := range f[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok || (k != "n" && k != "sum") {
				continue
			}
			if x, err := strconv.ParseFloat(strings.TrimSuffix(v, "s"), 64); err == nil {
				out[f[0]+"."+k] = x
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if out["http_request_seconds.n"] == 0 {
		return nil, fmt.Errorf("no http_request_seconds histogram in /metrics")
	}
	return out, nil
}

// serveBodies boots a fresh skeletond, sends every universe request once
// and returns each body by key.
func serveBodies(bin string) (map[string][]byte, error) {
	s, _, err := startServer(bin)
	if err != nil {
		return nil, err
	}
	replies, _ := drive(s.base, serveUniverse(), nil, -1)
	if err := s.stop(); err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, rep := range replies {
		if rep.err != nil || rep.status != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %v %s", requestKey(rep.req), rep.status, rep.err, rep.body)
		}
		out[requestKey(rep.req)] = rep.body
	}
	return out, nil
}
