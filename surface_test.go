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
	"sparse.SymmetricUpper":          "internal/kernels' tests build SymPerm's symmetric input",
}

// TestNoUnusedExports fails on an exported function or method declared
// under internal/ whose name appears in no non-test Go file of the
// repository (cmd/, internal/, examples/, perfbench/, scripts/) other
// than at its own declaration. internal/simtest is exempt: only tests
// import it.
func TestNoUnusedExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	type decl struct{ key, pos string }
	var decls []decl
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
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			uses[fd.Name.Name]-- // the declaration is not a use
			if !strings.HasPrefix(dir, "internal/") || dir == "internal/simtest" ||
				!fd.Name.IsExported() || surfaceInterfaceMethods[fd.Name.Name] {
				continue
			}
			key := filepath.Base(dir) + "." + fd.Name.Name
			if fd.Recv != nil {
				key = filepath.Base(dir) + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fset.Position(fd.Pos()).String()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, d := range decls {
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		if uses[name] > 0 {
			continue
		}
		if _, ok := surfaceTestExports[d.key]; ok {
			continue
		}
		unused = append(unused, d.pos+": "+d.key)
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is named by no non-test file: delete it, move it to its package's export_test.go, or list it in surfaceTestExports with the tests that need it", u)
	}
	for key := range surfaceTestExports {
		name := key[strings.LastIndexByte(key, '.')+1:]
		if uses[name] > 0 {
			t.Errorf("surfaceTestExports lists %s, which non-test code now names: drop the entry", key)
		}
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
