package spacebounds_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// assemblyPackage is the one package allowed to put a process together.
const assemblyPackage = "internal/node"

// assemblyConstructors are the calls that put a process together, by import
// path: building a shard set, reaching or serving one over TCP, opening a
// write-ahead log, and driving reconfiguration. A call inside the package
// that defines the constructor is unqualified and so never matches.
var assemblyConstructors = map[string][]string{
	"spacebounds/internal/shard":     {"New", "NewRemote"},
	"spacebounds/internal/transport": {"Dial", "NewServer"},
	"spacebounds/internal/wal":       {"Open"},
	"spacebounds/internal/reconfig":  {"NewCoordinator"},
}

// assemblyExempt lists the directories that may call the constructors
// anyway, each with the reason. (internal/workload's single-register Run is a
// controlled-mode model run as well, but builds a bare dsys cluster and calls
// none of them, so it needs no entry.)
var assemblyExempt = map[string]string{
	"internal/sim":         "controlled-mode model runs under a scheduling policy, with the coordinator driven step by step by the adversary: a simulated system, not a process",
	"internal/experiments": "controlled-mode model runs that regenerate the paper's tables, not processes",
	"internal/adversary":   "the lower-bound adversary's controlled-mode model runs, not processes",
	"bench":                "a separate module: the benchmark times the program's layers from outside and may not be changed with it",
}

// TestOneAssembly is the guard for DESIGN.md "Process assembly": outside
// tests, only internal/node may call the constructors that wire a process
// together, so the rules it owns — the layout k-rule, batching defaults,
// replay before listen, the attachment list, the migration-writer ID block,
// the serialized move driver, the close order — cannot grow a second copy in
// a binary or the facade.
func TestOneAssembly(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(path)
		if d.IsDir() {
			if _, exempt := assemblyExempt[dir]; exempt || dir == assemblyPackage || (dir != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		// Local name of every imported package that has a constructor.
		watched := make(map[string]string)
		for _, imp := range file.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if _, ok := assemblyConstructors[ipath]; !ok {
				continue
			}
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			watched[name] = ipath
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			for _, fn := range assemblyConstructors[watched[pkg.Name]] {
				if sel.Sel.Name == fn {
					t.Errorf("%s: %s.%s called outside %s; build the process through node.Open / node.Connect / (*Node).Serve",
						fset.Position(call.Pos()), pkg.Name, fn, assemblyPackage)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
