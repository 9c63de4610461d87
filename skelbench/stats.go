package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// minTail is how many samples must lie beyond a reported percentile:
// fewer and the percentile is one or two samples wide and means nothing.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank
// together with the sample count. It refuses, with an error, a
// percentile that has fewer than minTail samples beyond it.
func percentile(xs []float64, q float64) (float64, int, error) {
	n := len(xs)
	if n == 0 {
		return 0, 0, fmt.Errorf("p%g of no samples", 100*q)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minTail {
		return 0, n, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], n, nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It is for deterministic values and sample
// summaries, where the minTail rule of percentile does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tally counts operations against failures. A failed, refused or wrong
// operation stays in attempted and adds to failed; it is never dropped.
type tally struct {
	attempted, failed int
	// problems records the first few failure reasons for the report.
	problems []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	t.problem(format, args...)
}

// problem records a check failure that is not itself an operation, such
// as a missing digest; it makes the run incorrect without changing the
// counts.
func (t *tally) problem(format string, args ...any) {
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// peakRSSMB reads VmHWM — the process's resident-set high-water mark —
// from /proc/<pid>/status ("self" for this process).
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS returns freed memory to the OS and resets this process's
// VmHWM to its current RSS (clear_refs 5), so the next peakRSSMB("self")
// reads the peak of the work in between rather than of the whole run.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rounds runs body repeatedly within a budget of seconds, always at least
// once and never starting a round the mean round so far says would
// overrun it. Each round is whole, so a rate over rounds is a rate over
// a fixed mix of work. It returns the first error.
func rounds(seconds float64, body func() (float64, error)) error {
	spent, n := 0.0, 0
	for n == 0 || spent+spent/float64(n) <= seconds {
		d, err := body()
		if err != nil {
			return err
		}
		spent += d
		n++
	}
	return nil
}
