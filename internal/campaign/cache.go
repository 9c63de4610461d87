package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"perfskel/internal/signature"
	"perfskel/internal/skeleton"
	"perfskel/internal/telemetry"
	"perfskel/internal/trace"
)

// cellValue is what one cache cell holds. Run cells carry a time and,
// unless they are measured application runs, the trace statistics; the
// dedicated run of a traced app also carries its trace's threshold
// ladder, or the error NewLadder returned for the trace, which skeleton
// builds report. Build cells carry the constructed program and its
// signature. No cell keeps a trace. The ladder and the telemetry
// collector are memory-only: a ladder is large and reconstructible, and
// a collector only describes a simulation this process actually
// executed.
type cellValue struct {
	time      float64
	stats     *trace.Stats
	prog      *skeleton.Program
	sig       *signature.Signature
	ladder    *signature.Ladder
	ladderErr error
	tel       *telemetry.Collector
}

// diskEntry is a cell's persistent form. Program and Signature embed the
// packages' own JSON encodings.
type diskEntry struct {
	Label     string          `json:"label"`
	Time      float64         `json:"time,omitempty"`
	Stats     *trace.Stats    `json:"stats,omitempty"`
	Program   json.RawMessage `json:"program,omitempty"`
	Signature json.RawMessage `json:"signature,omitempty"`
}

// cellKind says what a cell keeps, and so what its disk entry must
// hold to be served: memory-only cells are never persisted, and an entry
// that lacks what its kind keeps is a miss.
type cellKind uint8

const (
	memOnly   cellKind = iota // the ladder of a dedicated run served from disk
	timedRun                  // a measured application run: its time alone
	statsRun                  // a dedicated or skeleton run: time and Stats
	buildCell                 // a skeleton construction: program and signature
)

// Stats counts what the cache did for one engine's lifetime.
type Stats struct {
	Hits     int64 // memory hits: a second request for a completed or in-flight cell
	DiskHits int64 // cells satisfied from the on-disk cache
	Misses   int64 // cells computed in this process
	Sims     int64 // simulations actually executed
}

// entry is one in-flight or completed cell. done closes when val/err are
// final; waiters block on it (singleflight), so a cell is computed at
// most once per engine no matter how many workers request it.
type entry struct {
	done chan struct{}
	val  cellValue
	err  error
}

// memo is the content-addressed run cache: an in-memory singleflight
// table over canonical labels, optionally backed by a directory of
// SHA-256-named JSON files.
type memo struct {
	mu      sync.Mutex
	entries map[string]*entry
	dir     string
	stats   struct{ hits, diskHits, misses, sims atomic.Int64 }
}

func newMemo(dir string) *memo {
	return &memo{entries: make(map[string]*entry), dir: dir}
}

// isCtxErr reports whether err is a cancellation or deadline failure —
// the one class of error that is a property of the requesting context,
// not of the cell, and so must never be cached.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// do returns the cell's value, computing it with compute on first
// request; later requests for an in-flight cell wait on it
// (singleflight), so a cell is computed at most once per engine no
// matter how many workers request it. Every kind but memOnly is
// disk-cacheable; diskRead additionally allows satisfying it from disk
// (an engine collecting telemetry always simulates, so it passes
// diskRead=false while still writing). Deterministic errors are cached
// too — retrying cannot succeed. Cancellation errors are NOT: they
// describe the requesting context, not the cell, so a canceled
// computation's entry is removed and the next request (including a
// waiter that inherited the abandonment) computes the cell afresh under
// its own context.
func (m *memo) do(ctx context.Context, label string, kind cellKind, diskRead bool, compute func(ctx context.Context) (cellValue, error)) (cellValue, error) {
	for {
		m.mu.Lock()
		if e, ok := m.entries[label]; ok {
			m.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				// The waiter's own deadline fired first; the in-flight
				// computation keeps running for whoever still wants it.
				return cellValue{}, ctx.Err()
			}
			if e.err != nil && isCtxErr(e.err) {
				// The computing request was abandoned mid-simulation and
				// its entry removed; take over and compute the cell under
				// this request's context.
				continue
			}
			m.stats.hits.Add(1)
			return e.val, e.err
		}
		e := &entry{done: make(chan struct{})}
		m.entries[label] = e
		m.mu.Unlock()

		persist := m.dir != "" && kind != memOnly
		if persist && diskRead {
			if v, ok := m.loadDisk(label, kind); ok {
				m.stats.diskHits.Add(1)
				e.val = v
				close(e.done)
				return e.val, nil
			}
		}
		m.stats.misses.Add(1)
		e.val, e.err = compute(ctx)
		if e.err == nil && persist {
			// Best effort: a cache-write failure (full disk, permissions)
			// only costs a future recompute.
			_ = m.saveDisk(label, e.val)
		}
		if e.err != nil && isCtxErr(e.err) {
			// Remove the poisoned entry before releasing waiters, so a
			// retrying waiter finds the slot free.
			m.mu.Lock()
			delete(m.entries, label)
			m.mu.Unlock()
		}
		close(e.done)
		return e.val, e.err
	}
}

// snapshot returns the cache counters.
func (m *memo) snapshot() Stats {
	return Stats{
		Hits:     m.stats.hits.Load(),
		DiskHits: m.stats.diskHits.Load(),
		Misses:   m.stats.misses.Load(),
		Sims:     m.stats.sims.Load(),
	}
}

// telemetryCells returns every completed cell that recorded a collector,
// labeled and sorted by label so the result is independent of map
// iteration order and completion schedule.
func (m *memo) telemetryCells() []telemetry.LabeledCollector {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []telemetry.LabeledCollector
	for label, e := range m.entries {
		select {
		case <-e.done:
			if e.err == nil && e.val.tel != nil {
				out = append(out, telemetry.LabeledCollector{Label: label, C: e.val.tel})
			}
		default:
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

func (m *memo) path(label string) string {
	return filepath.Join(m.dir, keyOf(label)+".json")
}

// loadDisk reads a persisted cell of the given kind. Any failure is a
// miss: a missing or corrupt file, a label mismatch, or an entry that
// lacks what its kind keeps. A run needs a time >= 0 and, unless
// it is timed only, its Stats; a build needs a program and a signature.
// Only what the kind keeps is read, so a measured run's entry that still
// holds Stats is served as the time alone, like a fresh run.
func (m *memo) loadDisk(label string, kind cellKind) (cellValue, bool) {
	raw, err := os.ReadFile(m.path(label))
	if err != nil {
		return cellValue{}, false
	}
	var de diskEntry
	if err := json.Unmarshal(raw, &de); err != nil || de.Label != label {
		return cellValue{}, false
	}
	switch kind {
	case timedRun, statsRun:
		if de.Time < 0 { // JSON holds no NaN or infinity
			return cellValue{}, false
		}
		v := cellValue{time: de.Time}
		if kind == statsRun {
			if de.Stats == nil {
				return cellValue{}, false
			}
			v.stats = de.Stats
		}
		return v, true
	case buildCell:
		if len(de.Program) == 0 || len(de.Signature) == 0 {
			return cellValue{}, false
		}
		p, err := skeleton.Read(bytes.NewReader(de.Program))
		if err != nil {
			return cellValue{}, false
		}
		s, err := signature.Read(bytes.NewReader(de.Signature))
		if err != nil {
			return cellValue{}, false
		}
		return cellValue{prog: p, sig: s}, true
	}
	return cellValue{}, false
}

// saveDisk persists a cell's durable parts. The write goes through a
// temp file plus rename so concurrent engines sharing a cache directory
// never observe a half-written entry.
func (m *memo) saveDisk(label string, v cellValue) error {
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		return err
	}
	de := diskEntry{Label: label, Time: v.time, Stats: v.stats}
	if v.prog != nil {
		var b bytes.Buffer
		if err := v.prog.Write(&b); err != nil {
			return err
		}
		de.Program = b.Bytes()
	}
	if v.sig != nil {
		var b bytes.Buffer
		if err := v.sig.Write(&b); err != nil {
			return err
		}
		de.Signature = b.Bytes()
	}
	raw, err := json.Marshal(de)
	if err != nil {
		return err
	}
	path := m.path(label)
	tmp, err := os.CreateTemp(m.dir, "cell-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
