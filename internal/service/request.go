package service

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"perfskel/internal/analysis"
	"perfskel/internal/analysis/commgraph"
	"perfskel/internal/analysis/staticsig"
	"perfskel/internal/campaign"
	"perfskel/internal/cluster"
	"perfskel/internal/nas"
	"perfskel/internal/signature"
	"perfskel/internal/skeleton"
	"perfskel/internal/trace"
)

// ErrBadRequest marks a request the service rejects before touching the
// pipeline: missing or out-of-range fields. Together with the pipeline
// taxonomy (signature.ErrEmptyTrace, skeleton.ErrBadK,
// cluster.ErrUnknownScenario, nas.ErrUnknownApp) it is what the handler
// maps to a 400; everything else is a 500.
var ErrBadRequest = errors.New("bad request")

// MaxRanks bounds the rank count a single request may ask for. Every
// rank is a simulated virtual process; an unbounded count would let one
// request exhaust the server.
const MaxRanks = 1024

// Request is the POST /predict body.
type Request struct {
	// App is the NAS benchmark name (BT, CG, EP, FT, IS, LU, MG, SP),
	// or — together with SourcePkg — the registry name of the program to
	// synthesize statically.
	App string `json:"app"`
	// Class is the NAS problem class: S, W, A or B.
	Class string `json:"class"`
	// Ranks is the number of ranks (and testbed nodes).
	Ranks int `json:"ranks"`
	// Scenario is the resource-sharing scenario name; an unknown name is
	// rejected with the valid set enumerated in the error.
	Scenario string `json:"scenario"`
	// K is the skeleton scaling factor. Exactly one of K and TargetTime
	// must be set.
	K int `json:"k,omitempty"`
	// TargetTime derives K from an intended skeleton execution time in
	// virtual seconds: K = round(appTime / TargetTime), at least 1.
	TargetTime float64 `json:"target_time_s,omitempty"`
	// Mode is the communication scale mode: "byte" (default) or "time".
	Mode string `json:"mode,omitempty"`
	// Measure additionally runs the application under the scenario, so
	// the response carries the actual time and the prediction error.
	Measure bool `json:"measure,omitempty"`
	// SourcePkg switches the request to trace-free static synthesis:
	// the signature comes from symbolically executing the named source
	// package (a directory or module-local import path on the serving
	// host) instead of tracing a built-in application.
	SourcePkg string `json:"source_pkg,omitempty"`
	// TimeoutMS caps this request's processing time in wall
	// milliseconds; zero uses the server default. The deadline is
	// enforced with real cancellation: an expired request's simulation
	// aborts at its next event checkpoint.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// validate normalizes the request and rejects bad fields with errors
// wrapping ErrBadRequest (or the pipeline taxonomy, for name lookups).
func (r *Request) validate() (cluster.Scenario, skeleton.ScaleMode, error) {
	if r.App == "" {
		return cluster.Scenario{}, 0, fmt.Errorf("missing \"app\": %w", ErrBadRequest)
	}
	if r.Ranks < 1 || r.Ranks > MaxRanks {
		return cluster.Scenario{}, 0, fmt.Errorf("\"ranks\" must be in [1, %d], got %d: %w", MaxRanks, r.Ranks, ErrBadRequest)
	}
	if (r.K != 0) == (r.TargetTime != 0) {
		return cluster.Scenario{}, 0, fmt.Errorf("exactly one of \"k\" and \"target_time_s\" must be set: %w", ErrBadRequest)
	}
	if r.K < 0 {
		return cluster.Scenario{}, 0, fmt.Errorf("\"k\" must be >= 1, got %d: %w", r.K, skeleton.ErrBadK)
	}
	if r.K == 0 && r.TargetTime <= 0 {
		return cluster.Scenario{}, 0, fmt.Errorf("\"target_time_s\" must be > 0, got %g: %w", r.TargetTime, skeleton.ErrBadK)
	}
	if r.Scenario == "" {
		return cluster.Scenario{}, 0, fmt.Errorf("missing \"scenario\": %w", ErrBadRequest)
	}
	sc, err := cluster.ByName(r.Scenario, r.Ranks)
	if err != nil {
		return cluster.Scenario{}, 0, err
	}
	var mode skeleton.ScaleMode
	switch r.Mode {
	case "", "byte":
		mode = skeleton.ByteScale
	case "time":
		mode = skeleton.TimeScale
	default:
		return cluster.Scenario{}, 0, fmt.Errorf("unknown \"mode\" %q (valid: byte, time): %w", r.Mode, ErrBadRequest)
	}
	if r.SourcePkg == "" {
		if _, err := nas.App(r.App, nas.Class(r.Class)); err != nil {
			return cluster.Scenario{}, 0, err
		}
	} else if r.Measure {
		return cluster.Scenario{}, 0, fmt.Errorf("\"measure\" needs a runnable application; a statically synthesized one has no program body: %w", ErrBadRequest)
	}
	return sc, mode, nil
}

// key returns the request's canonical cache label: every field that
// affects the response, in fixed order. Static requests get their key
// extended with the synthesized source hash by resolveApp, so a source
// edit invalidates the cached response.
func (r *Request) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v1|app=%s|class=%s|p=%d|sc=%s|k=%d|tt=%g|mode=%s", r.App, r.Class, r.Ranks, r.Scenario, r.K, r.TargetTime, r.Mode)
	if r.Measure {
		b.WriteString("|measure=1")
	}
	if r.SourcePkg != "" {
		fmt.Fprintf(&b, "|srcpkg=%s", r.SourcePkg)
	}
	return b.String()
}

// Response is the POST /predict success body. It is a pure function of
// the request (and, for static requests, of the analyzed source), so a
// cache-hit body is byte-identical to the cold one; the
// X-Skeletond-Cache header — not the body — says which one arrived.
type Response struct {
	// Request echoes the canonicalized request (timeout excluded: it
	// affects whether the response arrives, never its value).
	Request Request `json:"request"`
	// K is the effective scaling factor (derived from TargetTime when
	// the request did not set K directly).
	K int `json:"k"`
	// Prediction is the skeleton-probe prediction under the scenario.
	Prediction campaign.Prediction `json:"prediction"`
	// Profile is the skeleton run's time breakdown under the scenario:
	// compute/MPI split and per-operation counts and times.
	Profile *trace.Stats `json:"profile,omitempty"`
	// Cache identifies the response's content address.
	Cache CacheInfo `json:"cache"`
}

// CacheInfo is the response's cache metadata.
type CacheInfo struct {
	// Key is the canonical request label the response is cached under.
	Key string `json:"key"`
}

// compute assembles one response. Every simulation goes through the
// campaign engine's memoization; ctx cancellation aborts an in-flight
// simulation at event granularity.
func (s *Server) compute(ctx context.Context, req Request) (*Response, error) {
	sc, mode, err := req.validate()
	if err != nil {
		return nil, err
	}
	app, key, err := s.resolveApp(req)
	if err != nil {
		return nil, err
	}
	cell := campaign.Cell{App: app, NRanks: req.Ranks, Scenario: sc, Mode: mode}

	k := req.K
	if k == 0 {
		appTime, err := s.eng.AppDedicatedTime(ctx, cell)
		if err != nil {
			return nil, err
		}
		if k, err = skeleton.KForTime(appTime, req.TargetTime); err != nil {
			return nil, err
		}
	}
	cell.K = k

	preds, err := s.eng.PredictAllContext(ctx, campaign.Grid{
		Apps: []campaign.App{app}, NRanks: req.Ranks,
		Scenarios: []cluster.Scenario{sc}, Ks: []int{k},
		Mode: mode, MeasureApp: req.Measure,
	})
	if err != nil {
		return nil, err
	}
	skelScen, err := s.eng.RunContext(ctx, cell)
	if err != nil {
		return nil, err
	}

	echo := req
	echo.TimeoutMS = 0
	return &Response{
		Request:    echo,
		K:          k,
		Prediction: preds[0],
		Profile:    skelScen.Stats,
		Cache:      CacheInfo{Key: key},
	}, nil
}

// resolveApp turns the request into a campaign app plus the response
// cache key. Static requests synthesize the signature from source here
// and fold its content hash into the key.
func (s *Server) resolveApp(req Request) (campaign.App, string, error) {
	if req.SourcePkg == "" {
		app, err := campaign.NASApp(req.App, nas.Class(req.Class))
		if err != nil {
			return campaign.App{}, "", err
		}
		return app, req.key(), nil
	}
	inst, err := s.synthesize(req)
	if err != nil {
		return campaign.App{}, "", err
	}
	app := campaign.StaticApp(&campaign.StaticSig{Key: inst.Key, Sig: inst.Sig})
	return app, req.key() + "|src=" + inst.SourceHash, nil
}

// synthesize runs the trace-free static front end for a request: load
// the source package, extract the app's parametric signature,
// instantiate it at the request's rank count and class. Failures here
// are the caller's fault (bad path, un-analyzable program) and map to
// 400.
func (s *Server) synthesize(req Request) (*staticsig.Instance, error) {
	pkg, err := analysis.LoadPath(req.SourcePkg)
	if err != nil {
		return nil, fmt.Errorf("load %q: %w: %w", req.SourcePkg, err, ErrBadRequest)
	}
	par, err := staticsig.Extract(commgraph.Source{Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info}, req.App)
	if err != nil {
		return nil, fmt.Errorf("extract %q from %q: %w: %w", req.App, req.SourcePkg, err, ErrBadRequest)
	}
	inst, err := par.Instantiate(req.Ranks, req.Class)
	if err != nil {
		return nil, fmt.Errorf("instantiate: %w: %w", err, ErrBadRequest)
	}
	return inst, nil
}

// badRequest reports whether err is the caller's fault: the service
// maps these to 400 and everything else to 500.
func badRequest(err error) bool {
	return errors.Is(err, ErrBadRequest) ||
		errors.Is(err, skeleton.ErrBadK) ||
		errors.Is(err, cluster.ErrUnknownScenario) ||
		errors.Is(err, nas.ErrUnknownApp) ||
		errors.Is(err, signature.ErrEmptyTrace)
}
