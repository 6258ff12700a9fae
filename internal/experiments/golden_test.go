package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from this build")

const goldenPath = "testdata/experiments.golden"

// TestExperimentTablesGolden pins every value of E1–E8: the tables are
// deterministic (controlled mode, fixed policies and seeds), so a change that
// is not meant to move a paper result must leave them byte-identical.
// Regenerate with `go test ./internal/experiments -run
// TestExperimentTablesGolden -update` only for a change that moves a table on
// purpose, and say which rows moved and why.
func TestExperimentTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("E1–E8 skipped in -short mode")
	}
	var got strings.Builder
	for _, e := range All() {
		tbl, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got.WriteString(tbl.Format())
		got.WriteString("\n")
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden file has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d moved:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
