package experiments

import (
	"strings"
	"testing"
)

func TestTableFormatting(t *testing.T) {
	tbl := &Table{ID: "T", Title: "title", Caption: "caption", Header: []string{"a", "bee"}}
	tbl.AddRow(1, "x")
	tbl.AddRow(22, "yy")
	text := tbl.Format()
	if !strings.Contains(text, "T — title") || !strings.Contains(text, "caption") || !strings.Contains(text, "22") {
		t.Fatalf("Format output missing content:\n%s", text)
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "| a | bee |") || !strings.Contains(md, "| 22 | yy |") {
		t.Fatalf("Markdown output missing content:\n%s", md)
	}
}

func TestAllAndByID(t *testing.T) {
	all := All()
	if len(all) != 8 {
		t.Fatalf("expected 8 experiments, got %d", len(all))
	}
	for _, e := range all {
		if e.Run == nil || e.ID == "" || e.Title == "" || e.PaperSource == "" {
			t.Fatalf("incomplete experiment descriptor %+v", e)
		}
	}
	if ByID("e4") == nil || ByID("E4").ID != "E4" {
		t.Fatal("ByID lookup failed")
	}
	if ByID("nope") != nil {
		t.Fatal("ByID returned a non-existent experiment")
	}
}

// TestExperimentsRunSmall runs the fast experiments end to end and sanity
// checks the expected invariants inside their outputs.
func TestE2E5E7Invariants(t *testing.T) {
	for _, id := range []string{"E2", "E5", "E7"} {
		exp := ByID(id)
		tbl, err := exp.Run()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		if id == "E2" || id == "E5" {
			for _, row := range tbl.Rows {
				if row[len(row)-1] != "true" {
					t.Errorf("%s row reports a mismatch: %v", id, row)
				}
			}
		}
	}
}

func TestE4AdversaryInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("adversary sweep skipped in -short mode")
	}
	tbl, err := ByID("E4").Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		algo, c, pinned, meets, writesDone := row[0], row[1], row[2], row[4], row[7]
		if strings.HasPrefix(algo, "safe") {
			// The safe register's storage never moves from n·D/k = 1.50 KiB,
			// so for large enough c it falls below the regular-register
			// target — the Appendix E separation.
			if pinned != "1.50" {
				t.Errorf("safe register storage changed under the adversary: %v", row)
			}
			if c == "16" && meets != "false" {
				t.Errorf("safe register at c=16 should sit below the regular-register bound: %v", row)
			}
			continue
		}
		if c == "12" || c == "16" {
			// At very high concurrency relative to n the adversary dynamics
			// are reported but not asserted (a write occasionally escapes by
			// having its blocks overwritten, which the theorem permits).
			continue
		}
		if meets != "true" {
			t.Errorf("%s did not meet the lower bound: %v", algo, row)
		}
		if writesDone != "0" {
			t.Errorf("%s completed writes under the adversary: %v", algo, row)
		}
	}
}

func TestE6TraceProducesEvents(t *testing.T) {
	tbl, err := ByID("E6").Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("E6 produced no rows")
	}
	if !strings.Contains(tbl.Caption, "Run pinned after") {
		t.Fatalf("E6 caption lacks the run summary: %q", tbl.Caption)
	}
}
