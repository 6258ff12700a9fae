package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write creates a file under dir, making parents as needed.
func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckFileResolvesRelativeLinks(t *testing.T) {
	root := t.TempDir()
	write(t, root, "docs/TARGET.md", "# Title\n\n## Sub Heading!\n")
	readme := write(t, root, "README.md", strings.Join([]string{
		"# Readme",
		"[good](docs/TARGET.md)",
		"[good anchor](docs/TARGET.md#sub-heading)",
		"[bad anchor](docs/TARGET.md#nope)",
		"[missing](docs/GONE.md)",
		"[external](https://example.com/GONE.md)",
		"[badge](../../actions/workflows/ci.yml)", // escapes root: skipped
		"[self](#readme)",
		"[self bad](#nothing-here)",
		"```",
		"[in a fence](docs/GONE.md)",
		"```",
		"`[inline code](docs/GONE.md)`",
	}, "\n"))

	problems, err := checkFile(root, readme)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range problems {
		got = append(got, p)
	}
	if len(got) != 3 {
		t.Fatalf("want 3 problems (bad anchor, missing file, bad self-anchor), got %d:\n%s",
			len(got), strings.Join(got, "\n"))
	}
	for _, want := range []string{"#nope", "GONE.md", "#nothing-here"} {
		found := false
		for _, p := range got {
			if strings.Contains(p, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no problem mentions %s:\n%s", want, strings.Join(got, "\n"))
		}
	}
}

// TestCodeSpanWrappedAcrossLinesIsNoLink: a code span may wrap across a line
// break of its paragraph. A span split after `register.Reuse[T]` must not
// leave `(dst)` to be read as a link target, nor may a wrapped span shift how
// the spans after it pair up; a link after a paragraph break, or after the
// spans, is still checked.
func TestCodeSpanWrappedAcrossLinesIsNoLink(t *testing.T) {
	root := t.TempDir()
	readme := write(t, root, "README.md", strings.Join([]string{
		"# Readme",
		"Round memory is lent through `register.Reuse[T]",
		"(dst)`, not copied.",
		"A span that wraps, `dsys.RoundMemory",
		"h`, and then `register.Reuse[T](dst)` on the same line.",
		"[after the spans](GONE.md)",
		"",
		"`an unclosed span in one paragraph",
		"",
		"[next paragraph](ALSO-GONE.md) `closes nothing`",
	}, "\n"))
	problems, err := checkFile(root, readme)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 || !strings.Contains(problems[0], ":6: [GONE.md]") || !strings.Contains(problems[1], ":10: [ALSO-GONE.md]") {
		t.Fatalf("want exactly the two real broken links, on lines 6 and 10, got:\n%s", strings.Join(problems, "\n"))
	}
}

func TestHeadingSlugs(t *testing.T) {
	slugs := headingSlugs("# One Two\n## `Code` & Stuff\n## One Two\n```\n# not a heading\n```\n")
	want := []string{"one-two", "code--stuff", "one-two-1"}
	if strings.Join(slugs, ",") != strings.Join(want, ",") {
		t.Fatalf("slugs = %v, want %v", slugs, want)
	}
}

// TestRepoDocsAreClean runs the checker over the repository's own markdown —
// the same invocation make linkcheck uses — so a broken cross-reference in
// README/DESIGN/ROADMAP/docs fails as a unit test too.
func TestRepoDocsAreClean(t *testing.T) {
	root := "../.."
	files, err := collectFiles(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found from the repo root")
	}
	for _, f := range files {
		problems, err := checkFile(root, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range problems {
			t.Error(p)
		}
	}
}
