package cobra

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceInterfaceMethods are method names a standard interface calls
// (fmt.Stringer, error, errors.Unwrap and errors.Is, encoding/json), so
// no source file needs to name them.
var surfaceInterfaceMethods = map[string]bool{
	"String":        true,
	"Error":         true,
	"Unwrap":        true,
	"Is":            true,
	"MarshalJSON":   true,
	"UnmarshalJSON": true,
}

// surfaceTestExports are exported functions that only another
// package's tests call, keyed "pkg.Name" or "pkg.Type.Method", each
// with the tests that need it. A function only its own package's tests
// call belongs in that package's export_test.go instead.
var surfaceTestExports = map[string]string{
	"cache.Cache.Line":               "internal/mem's reference-walk tests compare each level with their reference way by way",
	"cache.Cache.ReservedWays":       "internal/mem's reference-walk tests, and core's and sim's reservation checks, read a level's reservation",
	"core.Machine.TotalBinnedTuples": "internal/simtest's TestBinnedTupleConservation counts the tuples a machine binned",
	"fault.Deactivate":               "fault plans that tests in cmd/cobractl, exp, fsx and srv activate are switched off again",
	"fault.Fires":                    "internal/srv's fault tests check that a scheduled fault fired",
	"obsv.ReadManifest":              "cmd/figures' tests read back the manifest a run wrote",
	"sparse.SymPerm":                 "internal/kernels' TestSymPermApp checks the simulated SymPerm against it",
	"sparse.SymmetricUpper":          "internal/kernels' tests build SymPerm's symmetric input",
}

// TestNoUnusedExports fails on an exported function or method declared
// under internal/ that no non-test Go file of the repository (cmd/,
// internal/, examples/, perfbench/, scripts/) uses. Every package is
// type-checked (go/types, imports from source), so a use is a
// reference that resolves to the declared function, or to the method
// of that receiver type: a same-named function of another package, a
// field, or another type's same-named method does not count. A method
// that an interface of the repository's code declares, or that a
// function signature it calls takes, counts as used when its receiver
// implements that interface and the interface's method is used or the
// interface is taken (io.Writer, say). internal/simtest is exempt: only
// tests import it.
func TestNoUnusedExports(t *testing.T) {
	const module = "cobra/"
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{} // import path -> non-test files
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || filepath.Dir(path) == "." {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + filepath.ToSlash(filepath.Dir(path))
		pkgs[pkg] = append(pkgs[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	used := map[string]bool{} // funcKey of every function or method referenced
	var ifaces []*types.Interface
	var ifaceMethods []*types.Func // interface methods referenced
	type decl struct {
		key string // "pkg.Name" or "pkg.Type.Method", for messages and surfaceTestExports
		fn  *types.Func
		pos string
	}
	var decls []decl
	// One universe of objects: the repository's packages are checked
	// here, each once, and serve each other's imports; the standard
	// library comes from source.
	imp := &repoImporter{std: importer.ForCompiler(fset, "source", nil), done: map[string]*types.Package{}}
	imp.check = func(path string) (*types.Package, error) {
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, pkgs[path], info)
		if err != nil {
			return nil, err
		}
		for _, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			used[funcKey(fn)] = true
			if sig := fn.Type().(*types.Signature); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				ifaceMethods = append(ifaceMethods, fn)
			}
		}
		// Interfaces the code declares or takes: a method of a type
		// implementing one may be called through it.
		for _, tv := range info.Types {
			ifaces = appendInterfaces(ifaces, tv.Type)
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				ifaces = appendInterfaces(ifaces, tn.Type())
			}
		}
		dir := strings.TrimPrefix(path, module)
		if !strings.HasPrefix(dir, "internal/") || dir == "internal/simtest" {
			return pkg, nil
		}
		for id, obj := range info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || !id.IsExported() || surfaceInterfaceMethods[id.Name] {
				continue
			}
			key := pkg.Name() + "." + id.Name
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				key = pkg.Name() + "." + recvTypeName(recv.Type()) + "." + id.Name
			}
			decls = append(decls, decl{key, fn, fset.Position(id.Pos()).String()})
		}
		return pkg, nil
	}
	for _, path := range paths {
		if _, err := imp.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	isUsed := func(fn *types.Func) bool {
		if used[funcKey(fn)] {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		ptr := recv.Type()
		if _, ok := ptr.(*types.Pointer); !ok {
			ptr = types.NewPointer(ptr)
		}
		for _, m := range ifaceMethods {
			if m.Name() == fn.Name() && types.Implements(ptr, m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)) {
				return true
			}
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && !used[funcKey(it.Method(i))] && types.Implements(ptr, it) {
					return true
				}
			}
		}
		return false
	}
	var unused []string
	for _, d := range decls {
		_, listed := surfaceTestExports[d.key]
		switch u := isUsed(d.fn); {
		case u && listed:
			t.Errorf("surfaceTestExports lists %s, which non-test code now uses: drop the entry", d.key)
		case !u && !listed:
			unused = append(unused, d.pos+": "+d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is used by no non-test file: delete it, move it to its package's test files, or list it in surfaceTestExports with the tests that need it", u)
	}
}

// funcKey identifies a function or method across type-checks of its
// package: the package path, the receiver's type name for a method, and
// the name. Methods of instantiated generic types key as their origin.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	key := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		key = recvTypeName(recv.Type()) + "." + key
	}
	if fn.Pkg() != nil {
		key = fn.Pkg().Path() + "." + key
	}
	return key
}

// recvTypeName is the type name of a method receiver (T, *T, T[P]).
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch x := t.(type) {
	case *types.Named:
		return x.Obj().Name()
	case *types.Interface:
		return "interface"
	}
	return t.String()
}

// appendInterfaces appends the non-empty interfaces t is or takes: t
// itself, or the parameters and results of a signature.
func appendInterfaces(dst []*types.Interface, t types.Type) []*types.Interface {
	switch x := t.(type) {
	case *types.Signature:
		for _, tup := range []*types.Tuple{x.Params(), x.Results()} {
			for i := 0; i < tup.Len(); i++ {
				dst = appendInterfaces(dst, tup.At(i).Type())
			}
		}
		return dst
	case *types.Slice:
		return appendInterfaces(dst, x.Elem())
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		dst = append(dst, it)
	}
	return dst
}

// repoImporter type-checks the repository's packages (check) once each
// and imports everything else through std.
type repoImporter struct {
	std   types.Importer
	check func(path string) (*types.Package, error)
	done  map[string]*types.Package
}

func (im *repoImporter) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, "cobra/") {
		return im.std.Import(path)
	}
	if pkg, ok := im.done[path]; ok {
		return pkg, nil
	}
	pkg, err := im.check(path)
	im.done[path] = pkg
	return pkg, err
}
