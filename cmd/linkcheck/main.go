// Command linkcheck verifies the repository's markdown cross-references
// without any external dependency: every inline link or image whose target is
// a relative path must resolve to an existing file, and a #fragment pointing
// into a markdown file must match one of that file's heading anchors (GitHub
// slug rules). External links (http, https, mailto) are not fetched — the
// checker guards the repo's own docs graph, not the internet.
//
// Usage:
//
//	linkcheck [-root DIR] [paths...]
//
// With no paths it checks every .md file under -root (default "."), skipping
// dot-directories. It prints one line per broken link and exits non-zero if
// any were found.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root; relative links may not escape it")
	flag.Parse()

	files, err := collectFiles(*root, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "linkcheck: %v\n", err)
		os.Exit(2)
	}
	broken := 0
	for _, f := range files {
		problems, err := checkFile(*root, f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "linkcheck: %s: %v\n", f, err)
			os.Exit(2)
		}
		for _, p := range problems {
			fmt.Println(p)
			broken++
		}
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "linkcheck: %d broken link(s) across %d file(s)\n", broken, len(files))
		os.Exit(1)
	}
	fmt.Printf("linkcheck: %d file(s) ok\n", len(files))
}

// collectFiles expands the given paths (default: the whole root) into the
// list of markdown files to check.
func collectFiles(root string, paths []string) ([]string, error) {
	if len(paths) == 0 {
		paths = []string{root}
	}
	var out []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			out = append(out, p)
			continue
		}
		err = filepath.WalkDir(p, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != p {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(d.Name(), ".md") {
				out = append(out, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// inlineLink matches [text](target) and ![alt](target), capturing the target
// up to the closing parenthesis or an optional "title".
var inlineLink = regexp.MustCompile(`!?\[[^\]]*\]\(\s*<?([^)<>\s]+)>?(?:\s+"[^"]*")?\s*\)`)

// checkFile returns a description of every broken link in file.
func checkFile(root, file string) ([]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var problems []string
	for i, line := range strings.Split(stripCodeBlocks(string(data)), "\n") {
		for _, m := range inlineLink.FindAllStringSubmatch(line, -1) {
			if reason := checkTarget(root, file, m[1]); reason != "" {
				problems = append(problems, fmt.Sprintf("%s:%d: [%s] %s", file, i+1, m[1], reason))
			}
		}
	}
	return problems, nil
}

// stripCodeBlocks blanks fenced code blocks and inline code spans so code
// samples cannot produce false links; line numbering is preserved. A code
// span may wrap across the line breaks of its paragraph, so spans are blanked
// a paragraph — a run of non-blank lines outside a fence — at a time.
func stripCodeBlocks(s string) string {
	lines := strings.Split(s, "\n")
	inFence := false
	para := -1 // the first line of the paragraph being read, or -1
	flush := func(end int) {
		if para >= 0 {
			copy(lines[para:end], strings.Split(blankInlineCode(strings.Join(lines[para:end], "\n")), "\n"))
			para = -1
		}
	}
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "```"):
			flush(i)
			inFence = !inFence
			lines[i] = ""
		case inFence:
			lines[i] = ""
		case trimmed == "":
			flush(i)
		case para < 0:
			para = i
		}
	}
	flush(len(lines))
	return strings.Join(lines, "\n")
}

// blankInlineCode replaces `code spans` with spaces, line breaks inside a
// span excepted.
func blankInlineCode(text string) string {
	out := []byte(text)
	for {
		start := strings.IndexByte(string(out), '`')
		if start < 0 {
			return string(out)
		}
		end := strings.IndexByte(string(out[start+1:]), '`')
		if end < 0 {
			return string(out)
		}
		for i := start; i <= start+1+end; i++ {
			if out[i] != '\n' {
				out[i] = ' '
			}
		}
	}
}

// checkTarget validates one link target; it returns "" when the link is fine
// (or outside the checker's scope) and a human-readable reason otherwise.
func checkTarget(root, file, target string) string {
	if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
		return "" // external; not fetched
	}
	path, frag, _ := strings.Cut(target, "#")
	if path == "" {
		// Same-file fragment.
		return checkFragment(file, frag)
	}
	resolved := filepath.Join(filepath.Dir(file), path)
	if escapesRoot(root, resolved) {
		// Links that climb out of the repository (e.g. the CI badge's
		// ../../actions/... URL, which GitHub resolves site-side) cannot be
		// verified from a checkout.
		return ""
	}
	info, err := os.Stat(resolved)
	if err != nil {
		return "target does not exist"
	}
	if frag != "" {
		if info.IsDir() {
			return "fragment on a directory link"
		}
		if strings.HasSuffix(resolved, ".md") {
			return checkFragment(resolved, frag)
		}
	}
	return ""
}

// escapesRoot reports whether path lies outside root.
func escapesRoot(root, path string) bool {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return true
	}
	return rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator))
}

// checkFragment verifies that a markdown file has a heading whose GitHub
// anchor slug matches frag.
func checkFragment(file, frag string) string {
	if frag == "" {
		return ""
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return "fragment target unreadable"
	}
	for _, slug := range headingSlugs(string(data)) {
		if slug == frag {
			return ""
		}
	}
	return fmt.Sprintf("no heading with anchor #%s in %s", frag, filepath.Base(file))
}

// headingSlugs returns the GitHub anchor slugs of every markdown heading,
// applying the -n suffix GitHub adds to duplicates.
func headingSlugs(s string) []string {
	var slugs []string
	seen := map[string]int{}
	inFence := false
	for _, line := range strings.Split(s, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(trimmed, "#") {
			continue
		}
		text := strings.TrimLeft(trimmed, "#")
		if text == trimmed || (text != "" && text[0] != ' ') {
			continue // not a heading (e.g. "#hashtag" or over six #s is fine either way)
		}
		slug := slugify(strings.TrimSpace(text))
		if n, dup := seen[slug]; dup {
			seen[slug] = n + 1
			slugs = append(slugs, fmt.Sprintf("%s-%d", slug, n))
		} else {
			seen[slug] = 1
			slugs = append(slugs, slug)
		}
	}
	return slugs
}

// slugify applies GitHub's heading-anchor rules: lowercase, spaces to
// dashes, and everything except letters, digits, dashes and underscores
// dropped (backticks and other punctuation vanish).
func slugify(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_',
			r >= 'a' && r <= 'z',
			r >= '0' && r <= '9',
			r > 127: // unicode letters survive
			b.WriteRune(r)
		}
	}
	return b.String()
}
