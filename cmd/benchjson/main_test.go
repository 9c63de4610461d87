package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

const sampleNote = "construction and sim steady state, -count 2 -benchtime 1x"

// testdata/sample.txt is captured `go test -bench` output: two packages,
// -count 2 on two procs, with the custom units ns/trace-event, ns/event
// and events/op next to -benchmem's.
func TestSampleGolden(t *testing.T) {
	in, err := os.ReadFile("testdata/sample.txt")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/sample.json")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var out bytes.Buffer
		if err := run(sampleNote, bytes.NewReader(in), &out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("run %d:\n%s\nwant testdata/sample.json:\n%s", i, out.Bytes(), want)
		}
	}
}

func TestRejects(t *testing.T) {
	const ok = "pkg: perfskel/internal/sim\nBenchmarkSimMixOff-2 \t 10\t 2000 ns/op\t 4800 events/op\n"
	for name, in := range map[string]string{
		"empty":          "",
		"no results":     "goos: linux\npkg: perfskel\nPASS\nok  \tperfskel\t0.01s\n",
		"FAIL line":      ok + "FAIL\tperfskel/internal/sim\t0.5s\n",
		"--- FAIL":       ok + "--- FAIL: BenchmarkSimMixOn-2\n",
		"failed on line": ok + "BenchmarkSimMixOn-2 \t--- FAIL: BenchmarkSimMixOn-2\n",
		"unparsable":     ok + "BenchmarkSimMixOff-2 \t 10\t 2000 ns/op\t4800\n",
		"bad value":      ok + "BenchmarkSimMixOff-2 \t 10\t fast ns/op\t 4800 events/op\n",
		"missing unit":   ok + "BenchmarkSimMixOff-2 \t 10\t 2000 ns/op\n",
		"repeated unit":  ok + "BenchmarkSimMixOff-2 \t 10\t 2000 ns/op\t 4800 ns/op\n",
		"new unit":       ok + "BenchmarkSimMixOff-2 \t 10\t 2000 ns/op\t 4800 events/op\t 5 B/op\n",
		"procs differ":   ok + "BenchmarkSimMixOff-4 \t 10\t 2000 ns/op\t 4800 events/op\n",
	} {
		var out bytes.Buffer
		if err := run("note", strings.NewReader(in), &out); err == nil {
			t.Errorf("%s: accepted:\n%s", name, out.Bytes())
		} else if out.Len() != 0 {
			t.Errorf("%s: wrote output on error %v", name, err)
		}
	}
}

// A benchmark without the -N suffix ran at GOMAXPROCS 1.
func TestNoProcsSuffix(t *testing.T) {
	rep, err := reduce("", strings.NewReader("BenchmarkX \t 3\t 10 ns/op\nBenchmarkX \t 3\t 30 ns/op\nBenchmarkX \t 3\t 11 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if x := rep.Benchmarks["BenchmarkX"]; x.Procs != 1 || x.Runs != 3 || x.Median["ns/op"] != 11 {
		t.Errorf("got %+v", x)
	}
}
