package staticsig

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"perfskel/internal/nas"
	"perfskel/internal/signature"
)

var pinUpdate = flag.Bool("pin-update", false, "rewrite testdata/instance_pin.json from the current code")

const pinPath = "testdata/instance_pin.json"

// instancePin is one static instance's fingerprint: its cache key and
// the SHA-256 of its canonical signature's JSON encoding.
type instancePin struct {
	Key      string `json:"key"`
	CanonSHA string `json:"canon_sha256"`
}

// TestStaticInstancePin pins what the static path synthesizes for all
// eight NAS models at classes S and B on 4 and 16 ranks. The key
// content-addresses the loaded source and the canonical signature is
// what campaigns and the service build skeletons from, so a change to
// how source is loaded or type-checked must leave both byte-identical.
//
// Regenerate with `go test -run TestStaticInstancePin -pin-update` ONLY
// for a change that intentionally alters the NAS models or the
// synthesized signatures.
func TestStaticInstancePin(t *testing.T) {
	src := nasSource(t)
	got := map[string]instancePin{}
	for _, app := range nas.AllBenchmarks() {
		par, err := Extract(src, app)
		if err != nil {
			t.Fatalf("Extract(%s): %v", app, err)
		}
		for _, class := range []string{"S", "B"} {
			for _, nranks := range []int{4, 16} {
				inst, err := par.Instantiate(nranks, class)
				if err != nil {
					t.Fatalf("Instantiate(%s, %d, %s): %v", app, nranks, class, err)
				}
				data, err := signature.Canon(inst.Sig).EncodeJSON()
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				got[fmt.Sprintf("%s/%s/%d", app, class, nranks)] = instancePin{
					Key:      inst.Key,
					CanonSHA: hex.EncodeToString(sum[:]),
				}
			}
		}
	}
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *pinUpdate {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinPath, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinPath)
	if err != nil {
		t.Fatalf("read pin (regenerate with -pin-update): %v", err)
	}
	if bytes.Equal(enc, want) {
		return
	}
	var pinned map[string]instancePin
	if err := json.Unmarshal(want, &pinned); err != nil {
		t.Fatalf("decode %s: %v", pinPath, err)
	}
	for cell, p := range got {
		if pinned[cell] != p {
			t.Errorf("%s: got %+v, pinned %+v", cell, p, pinned[cell])
		}
	}
	for cell := range pinned {
		if _, ok := got[cell]; !ok {
			t.Errorf("%s: pinned but not produced", cell)
		}
	}
	if !t.Failed() {
		t.Errorf("%s differs from the current output in layout only; regenerate with -pin-update", pinPath)
	}
}
