package spacebounds_test

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestExportedIdentifiersDocumented is the godoc gate for the public facade:
// every exported top-level identifier in the root package — types, functions,
// methods, consts, vars, and exported struct fields — must carry a doc
// comment. It runs in the ordinary test job, so an undocumented export fails
// CI the same way a broken test does. (go vet catches malformed directives
// and mismatched comment placement; it does not require comments to exist,
// which is this test's job.)
func TestExportedIdentifiersDocumented(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["spacebounds"]
	if !ok {
		t.Fatalf("package spacebounds not found in %v", pkgs)
	}
	var missing []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, what))
	}
	for name, file := range pkg.Files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					report(d.Pos(), "func "+funcName(d)+" has no doc comment")
				}
			case *ast.GenDecl:
				checkGenDecl(d, report)
			}
		}
	}
	for _, m := range missing {
		t.Error(m)
	}
	if len(missing) > 0 {
		t.Log("every exported identifier of the facade needs a doc comment; see the godoc conventions in CONTRIBUTING docs or existing files")
	}
}

// funcName renders a function or method name for the failure message.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	return "(" + types(d.Recv.List[0].Type) + ") " + d.Name.Name
}

// types renders a receiver type expression.
func types(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.StarExpr:
		return "*" + types(v.X)
	case *ast.IndexExpr:
		return types(v.X)
	default:
		return fmt.Sprintf("%T", e)
	}
}

// checkGenDecl enforces docs on exported type/const/var declarations and on
// the exported fields of struct types.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string)) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
				report(s.Pos(), "type "+s.Name.Name+" has no doc comment")
			}
			if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
				for _, f := range st.Fields.List {
					for _, n := range f.Names {
						if n.IsExported() && f.Doc == nil && f.Comment == nil {
							report(n.Pos(), "field "+s.Name.Name+"."+n.Name+" has no doc comment")
						}
					}
				}
			}
		case *ast.ValueSpec:
			for _, n := range s.Names {
				if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(n.Pos(), "const/var "+n.Name+" has no doc comment")
				}
			}
		}
	}
}

// TestFacadeNamesOnlyImportableTypes is the importer's view of the facade:
// every exported function and method signature, every exported struct field
// and every alias must be spelled in types an importer can name — builtins,
// the standard library, or types declared or aliased in package spacebounds.
// A type from an internal package is reachable only through an alias declared
// here; returning one directly hands callers a value whose type they cannot
// write down.
func TestFacadeNamesOnlyImportableTypes(t *testing.T) {
	fset := token.NewFileSet()
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, ".", notTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["spacebounds"]
	if !ok {
		t.Fatalf("package spacebounds not found in %v", pkgs)
	}
	declared := make(map[string]bool)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if d, ok := decl.(*ast.GenDecl); ok && d.Tok == token.TYPE {
				for _, spec := range d.Specs {
					declared[spec.(*ast.TypeSpec).Name.Name] = true
				}
			}
		}
	}
	for _, file := range pkg.Files {
		imports := make(map[string]string) // local name -> import path
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = path
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && (d.Recv == nil || ast.IsExported(strings.TrimLeft(types(d.Recv.List[0].Type), "*"))) {
					checkNameable(t, fset, "func "+funcName(d), d.Type, declared, imports)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					s, ok := spec.(*ast.TypeSpec)
					if !ok || !s.Name.IsExported() {
						continue
					}
					if _, named := s.Type.(*ast.SelectorExpr); named && s.Assign.IsValid() {
						continue // the alias is how an importer names that type
					}
					checkNameable(t, fset, "type "+s.Name.Name, s.Type, declared, imports)
				}
			}
		}
	}
}

// checkNameable walks a type expression and reports every type in it an
// importer of the facade cannot name. Parameter names and unexported struct
// fields are skipped; only the types an importer sees are checked.
func checkNameable(t *testing.T, fset *token.FileSet, where string, e ast.Expr, declared map[string]bool, imports map[string]string) {
	t.Helper()
	var walk func(ast.Expr)
	fields := func(fl *ast.FieldList, exportedOnly bool) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			exported := len(f.Names) == 0
			for _, n := range f.Names {
				exported = exported || n.IsExported()
			}
			if exported || !exportedOnly {
				walk(f.Type)
			}
		}
	}
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.Ident:
			if !declared[x.Name] && !doc.IsPredeclared(x.Name) {
				t.Errorf("%s: %s names %s, which package spacebounds does not declare", fset.Position(x.Pos()), where, x.Name)
			}
		case *ast.SelectorExpr:
			pkg, _ := x.X.(*ast.Ident)
			path := ""
			if pkg != nil {
				path = imports[pkg.Name]
			}
			if first, _, _ := strings.Cut(path, "/"); path == "" || strings.Contains(first, ".") || first == "spacebounds" {
				t.Errorf("%s: %s names %s.%s from %q, which an importer cannot name; alias it in package spacebounds", fset.Position(x.Pos()), where, pkg, x.Sel.Name, path)
			}
		case *ast.StarExpr:
			walk(x.X)
		case *ast.ParenExpr:
			walk(x.X)
		case *ast.ArrayType:
			walk(x.Elt)
		case *ast.Ellipsis:
			walk(x.Elt)
		case *ast.ChanType:
			walk(x.Value)
		case *ast.MapType:
			walk(x.Key)
			walk(x.Value)
		case *ast.FuncType:
			fields(x.Params, false)
			fields(x.Results, false)
		case *ast.StructType:
			fields(x.Fields, true)
		case *ast.InterfaceType:
			fields(x.Methods, true)
		default:
			t.Errorf("%s: %s uses a %T the check does not understand; extend checkNameable", fset.Position(e.Pos()), where, e)
		}
	}
	walk(e)
}

// verifySkill is the manual of how to build, check and drive the repository.
const verifySkill = ".claude/skills/verify/SKILL.md"

// TestDesignCitationsResolve holds every citation into DESIGN.md: a section
// title in double quotes after the file's name — bare, after a comma or in
// parentheses — in a Go file, the Makefile, a CI workflow, the verify skill
// or any markdown file but DESIGN.md itself and the logs (CHANGES.md,
// ROADMAP.md and the plan of the next change) must occur, case-insensitively, in a heading of
// DESIGN.md or in a bold run-in title (a paragraph opening "**Title.**").
// Comment lines are joined first, so a title may wrap. The test also fails if
// a heading of DESIGN.md or of the verify skill names a PR: both describe the
// system as it is, and CHANGES.md keeps its history.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	titles := designTitles(string(design))
	files, err := citingFiles()
	if err != nil {
		t.Fatal(err)
	}
	cited := 0
	for _, path := range files {
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range designCitations(path, string(body)) {
			cited++
			if !titlesContain(titles, c.title) {
				t.Errorf("%s:%d: cites DESIGN.md %q, which is no heading or run-in title of DESIGN.md", path, c.line, c.title)
			}
		}
	}
	if cited == 0 {
		t.Error("found no citation into DESIGN.md; the scan is broken")
	}
	namesPR := regexp.MustCompile(`\bPR \d+`)
	for _, path := range []string{"DESIGN.md", verifySkill} {
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range headings(string(body)) {
			if namesPR.MatchString(h.text) {
				t.Errorf("%s:%d: heading %q names a PR; name the rule or the layer, and leave the history to CHANGES.md", path, h.line, h.text)
			}
		}
	}
}

// citingFiles lists the files whose citations into DESIGN.md are checked:
// Go files, Makefiles and markdown files under the root, outside
// dot-directories, less DESIGN.md and the logs; and the CI workflows and the
// verify skill. The plan of the next change is the root markdown file whose
// first line is a numbered heading ("# WORD 12 · title").
func citingFiles() ([]string, error) {
	skip := map[string]bool{"DESIGN.md": true, "CHANGES.md": true, "ROADMAP.md": true}
	plan := regexp.MustCompile(`^# [A-Z]+ \d+ · `)
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if strings.HasSuffix(name, ".md") && path == name {
			body, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if plan.Match(body) {
				return nil
			}
		}
		if strings.HasSuffix(name, ".go") || name == "Makefile" || (strings.HasSuffix(name, ".md") && !skip[path]) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	workflows, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil {
		return nil, err
	}
	files = append(files, workflows...)
	return append(files, verifySkill), nil
}

// citation is one section title cited from a file, at the line where its
// citation begins.
type citation struct {
	title string
	line  int
}

// citationRE matches the three ways a citation is written: the file's name
// and then the quoted title, bare, after a comma, or in parentheses.
var citationRE = regexp.MustCompile(`DESIGN\.md(?:\s*,\s*|\s*\(\s*|\s+)"([^"]+)"`)

// designCitations finds the citations in one file, over its joined lines.
func designCitations(path, body string) []citation {
	var out []citation
	for _, p := range joinedLines(path, body) {
		for _, m := range citationRE.FindAllStringSubmatchIndex(p.text, -1) {
			out = append(out, citation{title: strings.Join(strings.Fields(p.text[m[2]:m[3]]), " "), line: p.lineAt(m[0])})
		}
	}
	return out
}

// joined is a run of lines read as one: consecutive comment lines of a Go
// file, a Makefile or a workflow (the comment marker cut off), or a markdown
// paragraph. starts holds, for each line, its offset in text.
type joined struct {
	text   string
	first  int
	starts []int
}

// lineAt is the line that holds offset i of the joined text.
func (j joined) lineAt(i int) int {
	return j.first + sort.Search(len(j.starts), func(k int) bool { return j.starts[k] > i }) - 1
}

// joinedLines splits a file into joined runs. In a Go file, a Makefile or a
// workflow a comment line joins the comment lines around it and any other
// line stands alone; in markdown, non-blank lines join into paragraphs.
func joinedLines(path string, body string) []joined {
	markdown := strings.HasSuffix(path, ".md")
	marker := "#"
	if strings.HasSuffix(path, ".go") {
		marker = "//"
	}
	var out []joined
	open := false // the last run in out takes the next joining line
	for i, line := range strings.Split(body, "\n") {
		text := strings.TrimSpace(line)
		joins := text != ""
		if !markdown {
			text, joins = strings.CutPrefix(text, marker)
			text = strings.TrimSpace(text)
		}
		switch {
		case joins && open:
			run := &out[len(out)-1]
			run.text += " "
			run.starts = append(run.starts, len(run.text))
			run.text += text
		case joins || text != "":
			out = append(out, joined{text: text, first: i + 1, starts: []int{0}})
		}
		open = joins
	}
	return out
}

// heading is one markdown heading, outside code fences.
type heading struct {
	text string
	line int
}

// headings lists a markdown file's headings.
func headings(body string) []heading {
	var out []heading
	fenced := false
	for i, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if !fenced && strings.HasPrefix(line, "#") {
			out = append(out, heading{text: strings.TrimSpace(strings.TrimLeft(line, "#")), line: i + 1})
		}
	}
	return out
}

// runInTitleRE matches a bold run-in title: "**Title.**".
var runInTitleRE = regexp.MustCompile(`\*\*([^*]+?)\.\*\*`)

// designTitles lists DESIGN.md's headings and bold run-in titles, lowercased.
func designTitles(body string) []string {
	var out []string
	for _, h := range headings(body) {
		out = append(out, strings.ToLower(h.text))
	}
	for _, p := range joinedLines("DESIGN.md", body) {
		for _, m := range runInTitleRE.FindAllStringSubmatch(p.text, -1) {
			out = append(out, strings.ToLower(m[1]))
		}
	}
	return out
}

// titlesContain reports whether a cited title occurs in one of the titles.
func titlesContain(titles []string, cited string) bool {
	cited = strings.ToLower(cited)
	for _, t := range titles {
		if strings.Contains(t, cited) {
			return true
		}
	}
	return false
}
