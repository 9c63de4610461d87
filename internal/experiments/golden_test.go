package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestTablesGolden pins every value of the ablation and extension tables
// as rendered, in the order `experiments -ablation` and `experiments -ext`
// print them. The per-table tests above check properties only, so a
// value drift would pass them; this one catches it.
func TestTablesGolden(t *testing.T) {
	tables, err := AllAblations(4)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := ExtensionProcScaling(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, tb := range append(tables, ext) {
		got.WriteString(tb.String())
		got.WriteString("\n")
	}
	file := filepath.Join("testdata", "tables.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(file, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("tables drifted from %s:\ngot:\n%s\nwant:\n%s", file, got.Bytes(), want)
	}
}
