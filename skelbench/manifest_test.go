package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestManifestMatchesMetrics keeps BENCHMARK.json and the metrics the
// result line carries in step: same names, same units, same order.
func TestManifestMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the result line %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		if e.Name != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %s, result line has %s", i, e.Name, endToEnd[i])
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the result line %d", len(m.PerLayer), len(perLayer))
	}
	for i, e := range m.PerLayer {
		if e.Name != perLayer[i].name || e.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), result line has %s (%s)", i, e.Name, e.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, w := range m.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not run", w.Name)
		}
	}
}
