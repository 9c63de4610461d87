package perfskel

import (
	"context"
	"fmt"

	"perfskel/internal/analysis"
	"perfskel/internal/analysis/commgraph"
	"perfskel/internal/analysis/staticsig"
	"perfskel/internal/signature"
	"perfskel/internal/skeleton"
)

// ScaleMode selects how skeleton construction scales communication
// operations (ByteScale or TimeScale).
type ScaleMode = skeleton.ScaleMode

// ConstructOption configures Construct. Options apply in argument order,
// so a later option overrides an earlier one for the same setting.
type ConstructOption func(*constructConfig)

type constructConfig struct {
	k          int
	targetTime float64
	skelOpts   SkeletonOptions
	sigOpts    *SignatureOptions

	staticPkg   string
	staticApp   string
	staticRanks int
	staticClass string
}

// WithK sets the skeleton's integer scaling factor directly: the
// skeleton's dedicated execution time is about 1/K of the application's.
// When both WithK and WithTargetTime are given, WithK wins — an explicit
// factor is more specific than a derived one.
func WithK(k int) ConstructOption {
	return func(c *constructConfig) { c.k = k }
}

// WithTargetTime derives the scaling factor from an intended skeleton
// execution time in seconds: K = round(appTime / seconds), at least 1.
func WithTargetTime(seconds float64) ConstructOption {
	return func(c *constructConfig) { c.targetTime = seconds }
}

// WithMode sets the communication scale mode (ByteScale, the paper's
// method and the default, or TimeScale).
func WithMode(m ScaleMode) ConstructOption {
	return func(c *constructConfig) { c.skelOpts.Mode = m }
}

// WithSkeletonOptions replaces the full skeleton construction options
// (scale mode, assumed latency/bandwidth, compute spreading, coverage).
func WithSkeletonOptions(o SkeletonOptions) ConstructOption {
	return func(c *constructConfig) { c.skelOpts = o }
}

// WithSignatureOptions pins the signature-compression stage to explicit
// clustering options instead of the default similarity-threshold search.
// The resulting skeleton is still verified mutually consistent across
// ranks before it is returned.
func WithSignatureOptions(o SignatureOptions) ConstructOption {
	return func(c *constructConfig) { c.sigOpts = &o }
}

// WithStaticSource switches Construct to trace-free static synthesis:
// instead of compressing a recorded trace (the trace argument may then
// be nil), the pipeline parses and type-checks the MPI program's source
// package, symbolically executes its constructor and per-rank body, and
// instantiates the resulting parametric signature at the rank count and
// problem class named by WithStaticApp. pkgPath is either a directory
// or a module-local import path (e.g. "perfskel/internal/nas").
//
// Compute durations in a static signature are model estimates, not
// measurements; internal/analysis/staticsig records which of them are
// placeholders.
func WithStaticSource(pkgPath string) ConstructOption {
	return func(c *constructConfig) { c.staticPkg = pkgPath }
}

// WithStaticApp names the program to synthesize statically (its
// registry name or constructor function), the rank count, and the
// problem-size class to instantiate at. Only meaningful together with
// WithStaticSource.
func WithStaticApp(name string, nranks int, class string) ConstructOption {
	return func(c *constructConfig) {
		c.staticApp, c.staticRanks, c.staticClass = name, nranks, class
	}
}

// synthesizeStatic runs the trace-free front end: load the source
// package, extract the app's parametric signature, instantiate it.
func synthesizeStatic(cfg constructConfig) (*staticsig.Instance, error) {
	if cfg.staticApp == "" || cfg.staticRanks < 1 || cfg.staticClass == "" {
		return nil, fmt.Errorf("perfskel: WithStaticSource needs WithStaticApp(name, nranks, class)")
	}
	pkg, err := analysis.LoadPath(cfg.staticPkg)
	if err != nil {
		return nil, err
	}
	par, err := staticsig.Extract(commgraph.Source{Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info}, cfg.staticApp)
	if err != nil {
		return nil, err
	}
	return par.Instantiate(cfg.staticRanks, cfg.staticClass)
}

// Construct runs the complete skeleton-construction pipeline on a trace:
// signature compression (by default searching the similarity threshold
// until the compression ratio reaches the paper's Q = K/2), skeleton
// generation at scaling factor K, and a cross-rank consistency check (an
// inconsistent skeleton would deadlock). It returns the skeleton together
// with the execution signature it was built from.
//
// The scaling factor comes from WithK or WithTargetTime; exactly one is
// required (WithK wins if both are given).
//
//	skel, sig, err := perfskel.Construct(tr,
//	    perfskel.WithTargetTime(5.0),
//	    perfskel.WithMode(perfskel.TimeScale))
//
// With WithStaticSource the trace is not needed (pass nil): the
// signature comes from static synthesis of the program's source, and
// flows through the same skeleton generation and consistency check.
func Construct(tr *Trace, opts ...ConstructOption) (*Skeleton, *Signature, error) {
	return ConstructContext(context.Background(), tr, opts...)
}

// ConstructContext is Construct with a cancellation context, checked
// between the pipeline's stages (static synthesis, signature
// compression, skeleton generation, consistency verification) so an
// abandoned construction stops before starting its next stage. The
// companion execution entry points (Env.RunContext,
// Campaign.PredictAllContext) additionally check their context at
// simulation-event granularity.
func ConstructContext(ctx context.Context, tr *Trace, opts ...ConstructOption) (*Skeleton, *Signature, error) {
	var cfg constructConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.staticPkg != "" {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		inst, err := synthesizeStatic(cfg)
		if err != nil {
			return nil, nil, err
		}
		k, err := resolveK(cfg, inst.Sig.AppTime)
		if err != nil {
			return nil, nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		prog, err := skeleton.BuildOpts(inst.Sig, k, cfg.skelOpts)
		if err != nil {
			return nil, nil, err
		}
		if err := prog.Consistent(); err != nil {
			return nil, nil, err
		}
		return prog, inst.Sig, nil
	}
	if tr == nil {
		return nil, nil, fmt.Errorf("perfskel: Construct needs a trace (or WithStaticSource)")
	}
	k, err := resolveK(cfg, tr.AppTime)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if cfg.sigOpts != nil {
		sig, err := signature.Build(tr, *cfg.sigOpts)
		if err != nil {
			return nil, nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		prog, err := skeleton.BuildOpts(sig, k, cfg.skelOpts)
		if err != nil {
			return nil, nil, err
		}
		if err := prog.Consistent(); err != nil {
			return nil, nil, err
		}
		return prog, sig, nil
	}
	return skeleton.BuildFromTrace(tr, k, cfg.skelOpts)
}

// resolveK turns WithK/WithTargetTime into the scaling factor.
func resolveK(cfg constructConfig, appTime float64) (int, error) {
	k := cfg.k
	if k == 0 {
		if cfg.targetTime == 0 {
			return 0, fmt.Errorf("perfskel: Construct needs WithK or WithTargetTime: %w", ErrBadK)
		}
		var err error
		k, err = skeleton.KForTime(appTime, cfg.targetTime)
		if err != nil {
			return 0, err
		}
	}
	if k < 1 {
		return 0, fmt.Errorf("perfskel: scaling factor must be >= 1, got %d: %w", k, ErrBadK)
	}
	return k, nil
}
