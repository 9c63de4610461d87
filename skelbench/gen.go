package main

import (
	"math/rand"

	"perfskel/internal/cluster"
	"perfskel/internal/service"
)

// The seed decides only the order of work and, in serve-mix, which
// earlier requests are repeated: every seed asks for the same set of
// distinct predictions, so runs under different seeds do the same work
// and differ only in the schedule it arrives in.

// sweepApps is campaign-sweep's application list: the paper's NAS
// benchmarks, in a seed-shuffled order.
func sweepApps(seed int64) []string {
	apps := []string{"BT", "CG", "IS", "LU", "MG", "SP"}
	rand.New(rand.NewSource(seed)).Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	return apps
}

// scaleCell is one rank-scale prediction.
type scaleCell struct {
	app    string
	nranks int
}

// scaleCells is rank-scale's cell list in a seed-shuffled order.
func scaleCells(seed int64) []scaleCell {
	var cells []scaleCell
	for _, app := range []string{"CG", "IS", "LU", "MG"} {
		for _, p := range []int{16, 32, 64} {
			cells = append(cells, scaleCell{app, p})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// Serve-mix request universe: every NAS app at class S on 4, 8 and 16
// ranks, under each of the paper's five sharing scenarios, at five
// scaling factors.
var (
	serveApps  = []string{"BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"}
	serveRanks = []int{4, 8, 16}
	serveKs    = []int{2, 4, 8, 16, 32}
)

// serveScenarios names the five sharing scenarios.
func serveScenarios() []string {
	var names []string
	for _, sc := range cluster.PaperScenarios(2) {
		names = append(names, sc.Name)
	}
	return names
}

// serveUniverse lists every distinct serve-mix request in a fixed order.
// One request in ten also measures the application under the scenario
// (so the response carries the prediction error); which ones is fixed,
// not drawn from the seed, so the error metric is seed-independent.
func serveUniverse() []service.Request {
	var reqs []service.Request
	i := 0
	for _, app := range serveApps {
		for _, p := range serveRanks {
			for _, sc := range serveScenarios() {
				for _, k := range serveKs {
					reqs = append(reqs, service.Request{
						App: app, Class: "S", Ranks: p, Scenario: sc, K: k,
						Measure: i%10 == 3,
					})
					i++
				}
			}
		}
	}
	return reqs
}

// repeatShare is the fraction of the stream that repeats an earlier
// request exactly.
const repeatShare = 0.25

// serveStream returns round's closed-loop request stream: every universe
// request once, in a seed-shuffled order, with exact repeats of earlier
// requests interleaved at seed-chosen positions until they make up
// repeatShare of the stream.
func serveStream(seed int64, round int) []service.Request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
	fresh := serveUniverse()
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	repeats := int(float64(len(fresh)) * repeatShare / (1 - repeatShare))
	stream := make([]service.Request, 0, len(fresh)+repeats)
	for len(fresh) > 0 || repeats > 0 {
		if len(stream) > 0 && repeats > 0 && rng.Intn(len(fresh)+repeats) < repeats {
			stream = append(stream, stream[rng.Intn(len(stream))])
			repeats--
			continue
		}
		stream = append(stream, fresh[0])
		fresh = fresh[1:]
	}
	return stream
}

// streamShape summarizes a stream for the report: its length, distinct
// request count, exact-repeat fraction and measured fraction.
func streamShape(stream []service.Request) map[string]float64 {
	seen := map[string]bool{}
	repeats, measured := 0, 0
	for _, r := range stream {
		k := requestKey(r)
		if seen[k] {
			repeats++
		}
		seen[k] = true
		if r.Measure {
			measured++
		}
	}
	n := float64(len(stream))
	return map[string]float64{
		"requests":         n,
		"distinct_keys":    float64(len(seen)),
		"repeat_fraction":  float64(repeats) / n,
		"measure_fraction": float64(measured) / n,
	}
}
