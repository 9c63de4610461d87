// Command benchjson reduces the plain-text output of `go test -bench`
// to one JSON document: for every benchmark, the median over its
// repetitions of each unit its result lines report (ns/op, B/op,
// allocs/op and custom units such as ns/event). scripts/bench.sh writes
// every committed BENCH_*.json through it, so all of them share one
// schema and one statistic.
//
// It reads the plain text rather than `go test -json`, whose events can
// split one result line in several pieces. It exits non-zero and writes
// nothing on a failed test or benchmark, on a result line it cannot
// parse, and on input without results.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 5 ./internal/sim/ > raw.txt
//	benchjson "one-line note on what the suite measures" < raw.txt > BENCH_sim.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"perfskel/internal/stats"
)

// report is the whole output document.
type report struct {
	Note       string             `json:"note"`
	Goos       string             `json:"goos"`
	Goarch     string             `json:"goarch"`
	CPU        string             `json:"cpu"`
	Benchmarks map[string]*result `json:"benchmarks"`
}

// result is one benchmark, keyed in report.Benchmarks by its name
// without the -GOMAXPROCS suffix.
type result struct {
	Pkg    string             `json:"pkg"`
	Procs  int                `json:"procs"`
	Runs   int                `json:"runs"`
	Median map[string]float64 `json:"median"`

	samples map[string][]float64 // per unit, one value per run
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson NOTE < go-test-bench-output > BENCH_x.json")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run reduces r and writes the JSON document to w, or nothing on error.
func run(note string, r io.Reader, w io.Writer) error {
	rep, err := reduce(note, r)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// reduce parses go test -bench output and takes the medians.
func reduce(note string, r io.Reader) (*report, error) {
	rep := &report{Note: note, Benchmarks: map[string]*result{}}
	header := map[string]*string{"goos": &rep.Goos, "goarch": &rep.Goarch, "cpu": &rep.CPU}
	pkg := ""
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		key, val, _ := strings.Cut(line, ": ")
		switch {
		case strings.HasPrefix(line, "FAIL") || strings.Contains(line, "--- FAIL"):
			return nil, fmt.Errorf("line %d: go test failed: %s", n, line)
		case strings.HasPrefix(line, "Benchmark"):
			if err := rep.add(pkg, line); err != nil {
				return nil, fmt.Errorf("line %d: %w", n, err)
			}
		case key == "pkg":
			pkg = val
		case header[key] != nil:
			*header[key] = val
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, errors.New("no benchmark results in input")
	}
	for _, res := range rep.Benchmarks {
		res.Median = map[string]float64{}
		for unit, xs := range res.samples {
			res.Median[unit] = stats.Median(xs)
		}
	}
	return rep, nil
}

// add records one result line: name, iterations, then value-unit pairs.
func (rep *report) add(pkg, line string) error {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return fmt.Errorf("unparsable result line %q", line)
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return fmt.Errorf("unparsable iteration count in %q", line)
	}
	name, procs := f[0], 1
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 0 {
			name, procs = name[:i], p
		}
	}
	res := rep.Benchmarks[name]
	if res == nil {
		res = &result{Pkg: pkg, Procs: procs, samples: map[string][]float64{}}
		rep.Benchmarks[name] = res
	}
	if res.Pkg != pkg || res.Procs != procs {
		return fmt.Errorf("%s reported in %s with %d procs, earlier in %s with %d", name, pkg, procs, res.Pkg, res.Procs)
	}
	res.Runs++
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return fmt.Errorf("unparsable value %q in %q", f[i], line)
		}
		unit := f[i+1]
		if len(res.samples[unit]) != res.Runs-1 {
			return fmt.Errorf("%s reports %s twice in one run or not in every run", name, unit)
		}
		res.samples[unit] = append(res.samples[unit], v)
	}
	if len(res.samples) != len(f)/2-1 {
		return fmt.Errorf("%s reports fewer units than in its earlier runs", name)
	}
	return nil
}
