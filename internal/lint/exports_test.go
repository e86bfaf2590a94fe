package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryDeclarationHasACaller is the dead-code gate. It loads the
// module and the perfbench module with the suite's own Loader and fails
// on every
//
//   - exported identifier of an internal/ package, and
//   - unexported package-level func, type, var or const anywhere,
//
// that nothing uses outside its declaring package's tests. Uses resolve
// through type information. Non-test code anywhere counts as a caller
// (cmd/, examples/ and perfbench/ included); a test file counts only
// when it belongs to another package. A declaration's uses inside itself
// do not count, nor do a type's uses inside its own methods, so a type
// reached only through its own methods is reported.
//
// Exempt: the root package's exports (their callers live outside the
// module), struct fields and interface methods (both part of a type's
// shape), and methods that implement error or an interface declared in
// the import graph of their package (Error, String, ServeHTTP,
// MarshalJSON, Import, ...: their callers are dynamic).
func TestEveryDeclarationHasACaller(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...", "./perfbench")
	if err != nil {
		t.Fatal(err)
	}

	decls := declarations(pkgs)
	used := make(map[types.Object]bool)
	record := func(info *types.Info, usePkg string, inTests bool) {
		for id, obj := range info.Uses {
			obj = origin(obj)
			d, ok := decls[obj]
			if !ok || used[obj] {
				continue
			}
			if inTests {
				if strings.TrimSuffix(usePkg, "_test") != obj.Pkg().Path() {
					used[obj] = true
				}
			} else if !d.encloses(id.Pos()) {
				used[obj] = true
			}
		}
	}
	for _, p := range pkgs {
		record(p.Info, p.Path, false)
	}
	for _, p := range pkgs {
		checkTests(t, l, p, func(info *types.Info, path string) { record(info, path, true) })
	}

	ifaces := make(map[*types.Package]map[string][]*types.Interface)
	var dead []string
	for obj, d := range decls {
		if used[obj] {
			continue
		}
		if d.method != nil {
			if ifaces[obj.Pkg()] == nil {
				ifaces[obj.Pkg()] = interfacesIn(obj.Pkg())
			}
			if implementsSome(d.method, obj.Name(), ifaces[obj.Pkg()]) {
				continue
			}
		}
		pos := strings.TrimPrefix(l.Fset().Position(obj.Pos()).String(), root+string(filepath.Separator))
		dead = append(dead, d.name+" ("+pos+")")
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("no caller outside its own package's tests: %s", s)
	}
}

// decl is one checked declaration: its reported name, the source spans
// whose uses of it do not count and, for a method, its receiver's named
// type.
type decl struct {
	name   string
	spans  [][2]token.Pos
	method *types.Named
}

func (d *decl) encloses(pos token.Pos) bool {
	for _, s := range d.spans {
		if s[0] <= pos && pos < s[1] {
			return true
		}
	}
	return false
}

// declarations collects every declaration the gate checks, keyed by its
// types object.
func declarations(pkgs []*Package) map[types.Object]*decl {
	decls := make(map[types.Object]*decl)
	for _, p := range pkgs {
		exports := strings.Contains(p.Path+"/", "/internal/")
		checked := func(name string) bool {
			return name != "_" && (token.IsExported(name) && exports || !token.IsExported(name))
		}
		add := func(obj types.Object, name string, node ast.Node) *decl {
			d := &decl{name: p.Path + "." + name, spans: [][2]token.Pos{{node.Pos(), node.End()}}}
			decls[obj] = d
			return d
		}
		byType := make(map[types.Object]*decl)
		var methods []*ast.FuncDecl
		for _, f := range p.Syntax {
			for _, fd := range f.Decls {
				switch fd := fd.(type) {
				case *ast.FuncDecl:
					if fd.Recv != nil {
						methods = append(methods, fd)
						continue
					}
					name := fd.Name.Name
					if name == "init" || (name == "main" && p.Types.Name() == "main") || !checked(name) {
						continue
					}
					add(p.Info.Defs[fd.Name], name, fd)
				case *ast.GenDecl:
					for _, spec := range fd.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if obj := p.Info.Defs[spec.Name]; checked(spec.Name.Name) {
								byType[obj] = add(obj, spec.Name.Name, spec)
							}
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								if checked(n.Name) {
									add(p.Info.Defs[n], n.Name, spec)
								}
							}
						}
					}
				}
			}
		}
		for _, fd := range methods {
			fn := p.Info.Defs[fd.Name].(*types.Func)
			recv := fn.Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok {
				continue
			}
			if td, ok := byType[named.Obj()]; ok {
				td.spans = append(td.spans, [2]token.Pos{fd.Pos(), fd.End()})
			}
			if exports && token.IsExported(fd.Name.Name) {
				add(fn, named.Obj().Name()+"."+fd.Name.Name, fd).method = named
			}
		}
	}
	return decls
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// checkTests type-checks p's test files as go test builds them, the
// in-package ones together with p's own files, and hands record the uses
// in the test files with the test package's import path (external tests
// end in _test).
func checkTests(t *testing.T, l *Loader, p *Package, record func(*types.Info, string)) {
	names, err := filepath.Glob(filepath.Join(p.Dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var internal, external []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name == p.Types.Name() {
			internal = append(internal, f)
		} else {
			external = append(external, f)
		}
	}
	// check type-checks files as package path, resolving p's own import
	// path to self, and records the uses in the recorded files.
	check := func(path string, self *types.Package, files, recorded []*ast.File) (*types.Package, error) {
		info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
		cfg := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if path == p.Path {
				return self, nil
			}
			return l.Import(path)
		})}
		tpkg, err := cfg.Check(path, l.fset, files, info)
		if err != nil {
			return nil, err
		}
		for id := range info.Uses {
			if fileAt(recorded, id.Pos()) == nil {
				delete(info.Uses, id)
			}
		}
		record(info, path)
		return tpkg, nil
	}
	augmented := p.Types
	if len(internal) > 0 {
		if augmented, err = check(p.Path, nil, append(append([]*ast.File(nil), p.Syntax...), internal...), internal); err != nil {
			t.Fatalf("typecheck tests of %s: %v", p.Path, err)
		}
	}
	if len(external) > 0 {
		// An external test sees the package with its in-package test files
		// when it uses their declarations; go test then also rebuilds the
		// test's other imports against it, which a plain check cannot, so
		// try the loaded package first.
		if _, err := check(p.Path+"_test", p.Types, external, external); err != nil {
			if _, err := check(p.Path+"_test", augmented, external, external); err != nil {
				t.Fatalf("typecheck tests of %s_test: %v", p.Path, err)
			}
		}
	}
}

func fileAt(files []*ast.File, pos token.Pos) *ast.File {
	for _, f := range files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// interfacesIn returns error plus every non-generic named interface
// declared in pkg or anything it imports, indexed by method name.
func interfacesIn(pkg *types.Package) map[string][]*types.Interface {
	byMethod := make(map[string][]*types.Interface)
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				addIface(it)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(pkg)
	return byMethod
}

// implementsSome reports whether the named type or its pointer
// implements one of the interfaces with a method of this name.
func implementsSome(recv *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	if recv.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces[method] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}
