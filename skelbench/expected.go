package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// expectedPath holds the committed output digests: workload → prediction
// id → digest. Predictions are byte-deterministic, so a digest mismatch
// is a wrong output, counted as a failed operation.
const expectedPath = "skelbench/testdata/expected.json"

type expected map[string]map[string]string

func loadExpected() (expected, error) {
	data, err := os.ReadFile(expectedPath)
	if err != nil {
		return nil, fmt.Errorf("read output digests: %w", err)
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("parse %s: %w", expectedPath, err)
	}
	return e, nil
}

// verify compares a prediction's digest with the committed one. A nil
// expected (regeneration) accepts everything.
func (e expected) verify(workload, id, got string) error {
	if e == nil {
		return nil
	}
	want, ok := e[workload][id]
	switch {
	case !ok:
		return fmt.Errorf("%s: no committed digest for %s", workload, id)
	case want != got:
		return fmt.Errorf("%s: %s digest %s, want %s", workload, id, got, want)
	}
	return nil
}

// check counts one prediction as correct when its digest matches the
// committed one, and as failed otherwise.
func (e expected) check(t *tally, workload, id, got string) {
	if err := e.verify(workload, id, got); err != nil {
		t.fail("%v", err)
		return
	}
	t.ok()
}

// digest hashes values by their exact representation: floats by their
// IEEE bits, so a last-bit change is a mismatch.
func digest(values ...any) string {
	h := sha256.New()
	for _, v := range values {
		if f, ok := v.(float64); ok {
			fmt.Fprintf(h, "%016x|", math.Float64bits(f))
			continue
		}
		fmt.Fprintf(h, "%v|", v)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// regenerate recomputes every workload's digests from the current
// program and rewrites expectedPath. Run it only when a change is meant
// to alter predictions, and say so in the change.
func regenerate(o options) error {
	e := expected{"campaign-sweep": {}, "rank-scale": {}, "serve-mix": {}}
	var t tally

	in, _, err := sweepSetup(1, nil)
	if err != nil {
		return err
	}
	sweep, _, err := sweepGrid(&t, nil, in, newSweepEngine())
	if err != nil {
		return err
	}
	for id, p := range sweep {
		e["campaign-sweep"][id] = predictionDigest(p)
	}

	for _, c := range scaleCells(1) {
		res, err := scalePredict(c)
		if err != nil {
			return err
		}
		e["rank-scale"][c.id()] = res.digest()
	}

	bodies, err := serveBodies(o.skeletond)
	if err != nil {
		return err
	}
	for key, body := range bodies {
		e["serve-mix"][key] = bodyDigest(body)
	}

	// encoding/json sorts map keys, so a regeneration diffs cleanly.
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(data, '\n'), 0o644)
}

func bodyDigest(body []byte) string {
	s := sha256.Sum256(body)
	return hex.EncodeToString(s[:])[:16]
}
