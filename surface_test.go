package cobra

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceInterfaceMethods are method names a standard interface calls
// (fmt.Stringer, error, errors.Unwrap, encoding/json), so no source
// file needs to name them.
var surfaceInterfaceMethods = map[string]bool{
	"String":        true,
	"Error":         true,
	"Unwrap":        true,
	"MarshalJSON":   true,
	"UnmarshalJSON": true,
}

// surfaceTestExports are exported functions that only another
// package's tests call, keyed "pkg.Name" or "pkg.Type.Method", each
// with the tests that need it. A function only its own package's tests
// call belongs in that package's export_test.go instead.
var surfaceTestExports = map[string]string{
	"core.Machine.TotalBinnedTuples": "internal/simtest's TestBinnedTupleConservation counts the tuples a machine binned",
	"fault.Deactivate":               "fault plans that tests in cmd/cobractl, exp, fsx and srv activate are switched off again",
	"fault.Fires":                    "internal/srv's fault tests check that a scheduled fault fired",
	"obsv.ReadManifest":              "cmd/figures' tests read back the manifest a run wrote",
	"sparse.SymPerm":                 "internal/kernels' TestSymPermApp checks the simulated SymPerm against it",
	"sparse.SymmetricUpper":          "internal/kernels' tests build SymPerm's symmetric input",
}

// TestNoUnusedExports fails on an exported function or method declared
// under internal/ that no non-test Go file of the repository (cmd/,
// internal/, examples/, perfbench/, scripts/) uses. A function is used
// where another package names it through a selector on its import
// (pkg.Name, under whatever name the file imports the package) or
// where a file of its own package names it unqualified; a same-named
// function of another package, a field or a method does not count.
// Methods, whose receivers only type-checking resolves, are matched by
// name anywhere other than at a declaration. internal/simtest is
// exempt: only tests import it.
func TestNoUnusedExports(t *testing.T) {
	const module = "cobra/"
	fset := token.NewFileSet()
	type file struct {
		pkg string // import path of the file's package
		ast *ast.File
	}
	var files []file
	pkgName := map[string]string{} // import path -> package name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + filepath.ToSlash(filepath.Dir(path))
		pkgName[pkg] = f.Name.Name
		files = append(files, file{pkg, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	funcUses := map[string]int{} // "import/path.Name" -> uses
	nameUses := map[string]int{} // bare name -> uses, for methods
	type decl struct{ key, use, pos string }
	var decls []decl
	for _, f := range files {
		imports := map[string]string{} // local name -> import path
		for _, im := range f.ast.Imports {
			path := strings.Trim(im.Path.Value, `"`)
			name, ok := pkgName[path]
			if !ok {
				name = path[strings.LastIndexByte(path, '/')+1:]
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = path
		}
		// Idents that are no unqualified use: selector names, and names
		// a field, struct-literal key, variable or type declares.
		skip := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				skip[x.Sel] = true
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					funcUses[imports[id.Name]+"."+x.Sel.Name]++
				}
			case *ast.Field:
				for _, id := range x.Names {
					skip[id] = true
				}
			case *ast.CompositeLit:
				for _, e := range x.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							skip[id] = true
						}
					}
				}
			case *ast.ValueSpec:
				for _, id := range x.Names {
					skip[id] = true
				}
			case *ast.TypeSpec:
				skip[x.Name] = true
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					for _, e := range x.Lhs {
						if id, ok := e.(*ast.Ident); ok {
							skip[id] = true
						}
					}
				}
			case *ast.Ident:
				nameUses[x.Name]++
				if !skip[x] {
					funcUses[f.pkg+"."+x.Name]++
				}
			}
			return true
		})
		dir := strings.TrimPrefix(f.pkg, module)
		for _, dd := range f.ast.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			// The declaration is not a use.
			nameUses[fd.Name.Name]--
			funcUses[f.pkg+"."+fd.Name.Name]--
			if !strings.HasPrefix(dir, "internal/") || dir == "internal/simtest" ||
				!fd.Name.IsExported() || surfaceInterfaceMethods[fd.Name.Name] {
				continue
			}
			d := decl{filepath.Base(dir) + "." + fd.Name.Name, f.pkg + "." + fd.Name.Name, fset.Position(fd.Pos()).String()}
			if fd.Recv != nil {
				d.key = filepath.Base(dir) + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				d.use = fd.Name.Name
			}
			decls = append(decls, d)
		}
	}
	used := func(d decl) bool {
		if strings.Contains(d.use, "/") {
			return funcUses[d.use] > 0
		}
		return nameUses[d.use] > 0
	}
	var unused []string
	for _, d := range decls {
		_, listed := surfaceTestExports[d.key]
		switch {
		case used(d) && listed:
			t.Errorf("surfaceTestExports lists %s, which non-test code now uses: drop the entry", d.key)
		case !used(d) && !listed:
			unused = append(unused, d.pos+": "+d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is used by no non-test file: delete it, move it to its package's test files, or list it in surfaceTestExports with the tests that need it", u)
	}
}

// recvName is the type name of a method receiver (T, *T, T[P]).
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
