package spacebounds_test

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
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
