package telemetry

import (
	"fmt"
	"math"
	"strings"
)

// Breakdown is rank-seconds of activity split into the three categories
// prediction error is attributed to.
type Breakdown struct {
	Compute float64 `json:"compute"` // application work + CPU charged in calls
	Comm    float64 `json:"comm"`    // transfer plus non-blocked in-call time
	Blocked float64 `json:"blocked"` // synchronisation delay
}

func (b *Breakdown) add(o Breakdown) {
	b.Compute += o.Compute
	b.Comm += o.Comm
	b.Blocked += o.Blocked
}

func (b Breakdown) scale(f float64) Breakdown {
	return Breakdown{Compute: b.Compute * f, Comm: b.Comm * f, Blocked: b.Blocked * f}
}

// Total returns the summed rank-seconds.
func (b Breakdown) Total() float64 { return b.Compute + b.Comm + b.Blocked }

// Phase is one inter-collective segment of an execution, aggregated over
// all ranks. Collectives are global synchronisation points, so they cut
// every rank's timeline at structurally identical places — the natural
// unit for aligning a skeleton against the application it was built
// from, because skeleton construction scales loop iteration counts but
// preserves the inter-collective structure.
type Phase struct {
	// Collective names the operation closing the phase; empty for the
	// trailing segment after the last collective.
	Collective string `json:"collective,omitempty"`
	Breakdown  `json:"breakdown"`
	End        float64 `json:"end"` // latest phase end over ranks, virtual s
}

// Profile is one run's per-phase time breakdown.
type Profile struct {
	NRanks   int     `json:"nranks"`
	Duration float64 `json:"duration"` // parallel execution time, virtual s
	Phases   []Phase `json:"phases"`
}

// Totals sums the breakdown over all phases.
func (p *Profile) Totals() Breakdown {
	var t Breakdown
	for _, ph := range p.Phases {
		t.add(ph.Breakdown)
	}
	return t
}

// Profile builds the run's phase profile from the recorded op spans:
// per rank, gaps between spans count as computation, span splits
// distribute in-call time, and each collective span closes a phase.
// Ranks' phases are merged by index (collectives are matched across
// ranks by the MPI calling contract).
func (c *Collector) Profile() *Profile {
	per := c.rankSpans()
	type rankPhase struct {
		coll string
		bd   Breakdown
		end  float64
	}
	var byRank [][]rankPhase
	maxPhases := 0
	for rank, spans := range per {
		var phases []rankPhase
		var cur rankPhase
		last := 0.0
		for _, s := range spans {
			if gap := s.Start - last; gap > 0 {
				cur.bd.Compute += gap
			}
			cur.bd.Compute += s.Split.Compute
			cur.bd.Blocked += s.Split.Blocked
			if rest := s.Duration() - s.Split.Compute - s.Split.Blocked; rest > 0 {
				cur.bd.Comm += rest
			}
			last = s.End
			if s.Collective {
				cur.coll = s.Op
				cur.end = s.End
				phases = append(phases, cur)
				cur = rankPhase{}
			}
		}
		if end := c.rankEnd(rank, spans); end > last {
			cur.bd.Compute += end - last
			last = end
		}
		if cur.bd.Total() > 0 {
			cur.end = last
			phases = append(phases, cur)
		}
		byRank = append(byRank, phases)
		if len(phases) > maxPhases {
			maxPhases = len(phases)
		}
	}
	p := &Profile{NRanks: len(per), Duration: c.last, Phases: make([]Phase, maxPhases)}
	for _, phases := range byRank {
		for i, rp := range phases {
			p.Phases[i].add(rp.bd)
			if rp.coll != "" {
				p.Phases[i].Collective = rp.coll
			}
			if rp.end > p.Phases[i].End {
				p.Phases[i].End = rp.end
			}
		}
	}
	return p
}

// DiffBucket is one aligned segment of the skeleton-vs-application
// comparison: the application's observed breakdown against the
// skeleton's ratio-scaled prediction for the same structural region.
type DiffBucket struct {
	Label string    `json:"label"` // app phase range and closing collective
	App   Breakdown `json:"app"`
	Pred  Breakdown `json:"pred"`
}

// Delta returns predicted minus actual per category.
func (d DiffBucket) Delta() Breakdown {
	return Breakdown{
		Compute: d.Pred.Compute - d.App.Compute,
		Comm:    d.Pred.Comm - d.App.Comm,
		Blocked: d.Pred.Blocked - d.App.Blocked,
	}
}

// DiffReport aligns a skeleton run against an application run and
// attributes the prediction error per phase region and per category.
type DiffReport struct {
	Ratio     float64      `json:"ratio"`     // measured scaling ratio
	AppTime   float64      `json:"apptime"`   // observed application time
	SkelTime  float64      `json:"skeltime"`  // observed skeleton time
	Predicted float64      `json:"predicted"` // SkelTime * Ratio
	ErrorPct  float64      `json:"errorpct"`  // signed relative error
	Total     DiffBucket   `json:"total"`
	Buckets   []DiffBucket `json:"buckets"`
}

// Diff aligns app and skel phase-by-phase and attributes the prediction
// error. ratio is the measured scaling ratio (application dedicated time
// over skeleton dedicated time); the skeleton's rank-seconds are scaled
// by it before comparison. The two runs usually have different phase
// counts (the skeleton loops 1/K as often), so phases are aligned on
// normalised phase index: both sequences are mapped onto [0,1) by index
// and resampled into at most buckets segments (0 picks a default).
func Diff(app, skel *Profile, ratio float64, buckets int) *DiffReport {
	na, ns := len(app.Phases), len(skel.Phases)
	if buckets <= 0 {
		buckets = 10
	}
	if na < buckets {
		buckets = na
	}
	if ns < buckets {
		buckets = ns
	}
	if buckets < 1 {
		buckets = 1
	}
	r := &DiffReport{
		Ratio:    ratio,
		AppTime:  app.Duration,
		SkelTime: skel.Duration,
		Buckets:  make([]DiffBucket, buckets),
	}
	r.Predicted = skel.Duration * ratio
	if app.Duration > 0 {
		r.ErrorPct = 100 * (r.Predicted - app.Duration) / app.Duration
	}
	distribute(app.Phases, r.Buckets, 1, false)
	distribute(skel.Phases, r.Buckets, ratio, true)
	// Label each bucket with the app phase index range it covers.
	for i := range r.Buckets {
		lo := i * na / buckets
		hi := (i+1)*na/buckets - 1
		if hi < lo {
			hi = lo
		}
		label := fmt.Sprintf("phases %d-%d", lo, hi)
		if lo == hi {
			label = fmt.Sprintf("phase %d", lo)
		}
		if hi < na {
			if coll := app.Phases[hi].Collective; coll != "" {
				label += " (" + coll + ")"
			}
		}
		r.Buckets[i].Label = label
		r.Total.App.add(r.Buckets[i].App)
		r.Total.Pred.add(r.Buckets[i].Pred)
	}
	r.Total.Label = "total"
	return r
}

// distribute spreads each phase's (scaled) breakdown over the buckets it
// overlaps on the normalised index axis.
func distribute(phases []Phase, buckets []DiffBucket, scale float64, pred bool) {
	n := len(phases)
	if n == 0 {
		return
	}
	nb := float64(len(buckets))
	for i, ph := range phases {
		lo := float64(i) / float64(n) * nb
		hi := float64(i+1) / float64(n) * nb
		for b := int(lo); b < len(buckets) && float64(b) < hi; b++ {
			overlap := math.Min(hi, float64(b+1)) - math.Max(lo, float64(b))
			if overlap <= 0 {
				continue
			}
			frac := overlap / (hi - lo)
			part := ph.Breakdown.scale(scale * frac)
			if pred {
				buckets[b].Pred.add(part)
			} else {
				buckets[b].App.add(part)
			}
		}
	}
}

// Render returns the report as an aligned plain-text table: the headline
// prediction error, its attribution across categories, and the per-phase
// breakdown.
func (r *DiffReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "skeleton-vs-application profile diff (ratio %.4f)\n", r.Ratio)
	fmt.Fprintf(&b, "predicted %s (skeleton %s x %.4f), actual %s: error %s\n\n",
		Seconds(r.Predicted), Seconds(r.SkelTime), r.Ratio, Seconds(r.AppTime), SignedPct(r.ErrorPct))
	d := r.Total.Delta()
	absSum := math.Abs(d.Compute) + math.Abs(d.Comm) + math.Abs(d.Blocked)
	b.WriteString("error attribution (rank-seconds, predicted - actual):\n")
	for _, row := range []struct {
		name string
		v    float64
	}{{"compute", d.Compute}, {"comm", d.Comm}, {"blocked", d.Blocked}} {
		share := 0.0
		if absSum > 0 {
			share = 100 * math.Abs(row.v) / absSum
		}
		fmt.Fprintf(&b, "  %-8s %+12.6f  (%6s of divergence)\n", row.name, row.v, Pct(share))
	}
	fmt.Fprintf(&b, "\n%-28s %30s %30s %12s\n", "region", "app comp/comm/blk", "pred comp/comm/blk", "delta")
	rows := append(r.Buckets, r.Total)
	for _, bk := range rows {
		fmt.Fprintf(&b, "%-28s %9.4f %9.4f %9.4f  %9.4f %9.4f %9.4f  %+11.4f\n",
			bk.Label,
			bk.App.Compute, bk.App.Comm, bk.App.Blocked,
			bk.Pred.Compute, bk.Pred.Comm, bk.Pred.Blocked,
			bk.Pred.Total()-bk.App.Total())
	}
	return b.String()
}
