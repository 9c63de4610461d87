// Package nas provides synthetic workload models of the six NAS Parallel
// Benchmarks the paper evaluates (BT, CG, IS, LU, MG, SP), written against
// the mpi runtime. The models reproduce each benchmark's documented
// communication structure and iteration counts (NPB 2 report; Tabe &
// Stout's characterisation of MPI usage in the NPB):
//
//   - BT: 200 ADI timesteps; per step a block-tridiagonal RHS computation
//     and 4 multipartition cell phases, each exchanging faces in the three
//     sweep directions (moderately large messages, compute-dominated).
//   - SP: as BT but 400 timesteps of the scalar pentadiagonal solver, with
//     lighter per-step computation.
//   - LU: 250 SSOR iterations; lower and upper triangular sweeps pipeline
//     2-D wavefronts of small per-block messages (many small messages,
//     pipeline wait time).
//   - CG: 75 outer iterations x 25 inner conjugate-gradient iterations;
//     per inner iteration large transpose exchanges and dot-product
//     allreduces.
//   - MG: 20 V-cycles; per cycle repeated fine-grid smoothing with halo
//     exchanges and a descent/ascent over coarser levels with
//     geometrically shrinking messages.
//   - IS: 10 ranking iterations; per iteration a bucket-count allreduce
//     and a very large all-to-all key exchange (the paper's example of a
//     dominant all-all transfer).
//
// Class B parameters are calibrated so that on the paper's 4-node testbed
// the dedicated execution times land in the paper's 30-900 second band and
// the dominant-sequence sizes reproduce Figure 4. Class S runs in under a
// second with a deliberately different communication/computation balance,
// which is why the paper's "Class S prediction" baseline fails. Classes W
// and A are intermediate.
//
// Compute durations carry a deterministic +/-2% pseudo-random jitter, so
// traces exhibit the natural variation that the paper's similarity
// threshold (section 3.2) exists to absorb.
package nas

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"perfskel/internal/mpi"
)

// Class selects a NAS problem class.
type Class string

// Problem classes, smallest to largest.
const (
	ClassS Class = "S"
	ClassW Class = "W"
	ClassA Class = "A"
	ClassB Class = "B"
)

// Classes lists the supported classes in size order.
func Classes() []Class { return []Class{ClassS, ClassW, ClassA, ClassB} }

// Benchmarks returns the names of the six benchmarks the paper evaluates,
// in the paper's order.
func Benchmarks() []string { return []string{"BT", "CG", "IS", "LU", "MG", "SP"} }

// AllBenchmarks additionally includes the NPB members the paper does not
// use (FT, EP), provided as workload extensions.
func AllBenchmarks() []string { return append(Benchmarks(), "FT", "EP") }

// App returns the per-rank program of the named benchmark at the given
// class. The returned app runs on any world with at least 2 ranks
// (power-of-two sizes match the models best; the paper uses 4).
// ErrUnknownApp reports a benchmark name App does not know. Callers
// branch on it with errors.Is (the prediction service maps it to a
// 400); the full message enumerates the valid names sorted, so CLI
// usage errors and service 400 bodies are byte-stable.
var ErrUnknownApp = errors.New("unknown benchmark")

func App(name string, class Class) (mpi.App, error) {
	mk, ok := registry[name]
	if !ok {
		names := AllBenchmarks()
		sort.Strings(names)
		return nil, fmt.Errorf("nas: %w %q (valid: %s)", ErrUnknownApp, name, strings.Join(names, ", "))
	}
	app, err := mk(class)
	if err != nil {
		return nil, fmt.Errorf("nas: %s class %s: %w", name, class, err)
	}
	return app, nil
}

var registry = map[string]func(Class) (mpi.App, error){
	"BT": func(c Class) (mpi.App, error) { return adiApp(btTable, c) },
	"SP": func(c Class) (mpi.App, error) { return adiApp(spTable, c) },
	"LU": luApp,
	"CG": cgApp,
	"MG": mgApp,
	"IS": isApp,
	"FT": ftApp,
	"EP": epApp,
}

// jitterAmp is the relative amplitude of the deterministic compute-time
// variation applied to every compute phase.
const jitterAmp = 0.02

// jitter returns a deterministic factor in [1-jitterAmp, 1+jitterAmp]
// derived from its arguments, modelling natural per-iteration variation in
// computation time.
func jitter(parts ...int) float64 { return vary(jitterAmp, parts...) }

// vary returns a deterministic factor in [1-amp, 1+amp] derived from its
// arguments.
func vary(amp float64, parts ...int) float64 {
	h := uint64(14695981039346656037)
	for _, p := range parts {
		v := uint64(int64(p))
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	u := float64(h%100001) / 100000 // [0,1]
	return 1 + amp*(2*u-1)
}

// grid2d factors size into the most-square px*py = size grid (px <= py).
func grid2d(size int) (px, py int) {
	px = 1
	for f := 1; f*f <= size; f++ {
		if size%f == 0 {
			px = f
		}
	}
	return px, size / px
}

// classErr reports an unsupported class for a parameter table.
func classErr(have []Class, c Class) error {
	names := make([]string, len(have))
	for i, h := range have {
		names[i] = string(h)
	}
	sort.Strings(names)
	return fmt.Errorf("unsupported class %q (have %v)", c, names)
}
