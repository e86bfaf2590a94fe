package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryDeclarationHasACaller is the dead-code gate: deadDeclarations
// over the module and the perfbench module, as loadModule loaded them,
// must find nothing.
func TestEveryDeclarationHasACaller(t *testing.T) {
	m := loadModule(t)
	dead, err := deadDeclarations(m.l, m.pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range dead {
		t.Errorf("no caller outside its own package's tests: %s", s)
	}
}

// TestDeadCodeGateFixture runs the gate on a module planted with one
// case of each rule.
func TestDeadCodeGateFixture(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	dead, err := deadDeclarations(l, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range dead {
		got = append(got, s[:strings.Index(s, " (")])
	}
	want := []string{
		"fix.OnlyTested",                  // root export only its own test uses
		"fix/internal/shape.Shape.Corner", // interface method never called through it
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("flagged:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// deadDeclarations takes the packages l loaded from its module and
// returns, sorted and with their positions relative to the module root,
// every
//
//   - exported identifier of the root package or an internal/ package,
//   - method of a named interface (exported ones only in those packages),
//   - unexported package-level func, type, var or const anywhere,
//
// that nothing uses outside its declaring package's tests. Uses resolve
// through type information. Non-test code anywhere counts as a caller
// (cmd/, examples/ and perfbench/ included); a test file counts only
// when it belongs to another package. A declaration's uses inside itself
// do not count, nor do a type's uses inside its own methods, so a type
// reached only through its own methods is reported. The root package's
// own tests do not count for its exports, except its Example functions:
// with cmd/ and examples/ they define the public surface, and the root's
// non-test code only names the types of that surface's signatures. An
// interface method counts as used only when code calls it through the
// interface, not through a concrete type.
//
// Exempt: struct fields (part of a type's shape), and methods that
// implement error or an interface declared in the import graph of their
// package (Error, String, ServeHTTP, MarshalJSON, Import, ...: their
// callers are dynamic).
func deadDeclarations(l *Loader, pkgs []*Package) ([]string, error) {
	decls := declarations(pkgs, l.module)
	// A package type-checked again for a test declares its objects anew,
	// at the positions of the loaded ones.
	byPos := make(map[token.Pos]types.Object, len(decls))
	for obj := range decls {
		byPos[obj.Pos()] = obj
	}
	used := make(map[types.Object]bool)
	record := func(info *types.Info, usePkg string, inTests bool, example func(token.Pos) bool) {
		for id, obj := range info.Uses {
			obj = origin(obj)
			d, ok := decls[obj]
			if !ok {
				if obj, ok = byPos[obj.Pos()]; ok {
					d = decls[obj]
				}
			}
			if !ok || used[obj] {
				continue
			}
			if inTests {
				home := obj.Pkg().Path()
				used[obj] = strings.TrimSuffix(usePkg, "_test") != home ||
					d.surface && usePkg == home+"_test" && example(id.Pos())
			} else if !d.spans.encloses(id.Pos()) {
				used[obj] = true
			}
		}
	}
	for _, p := range pkgs {
		record(p.Info, p.Path, false, nil)
	}
	for _, p := range pkgs {
		if err := checkTests(l, p, func(info *types.Info, path string, example func(token.Pos) bool) {
			record(info, path, true, example)
		}); err != nil {
			return nil, err
		}
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
		pos := strings.TrimPrefix(l.fset.Position(obj.Pos()).String(), l.root+string(filepath.Separator))
		dead = append(dead, d.name+" ("+pos+")")
	}
	sort.Strings(dead)
	return dead, nil
}

// decl is one checked declaration: its reported name, the source spans
// whose uses of it do not count, for a method its receiver's named type,
// and whether it is a root export, which Example functions can use.
type decl struct {
	name    string
	spans   spans
	method  *types.Named
	surface bool
}

// spans is a set of source ranges.
type spans [][2]token.Pos

func (ss spans) encloses(pos token.Pos) bool {
	for _, s := range ss {
		if s[0] <= pos && pos < s[1] {
			return true
		}
	}
	return false
}

// declarations collects every declaration the gate checks in the module
// of the given path, keyed by its types object.
func declarations(pkgs []*Package, module string) map[types.Object]*decl {
	decls := make(map[types.Object]*decl)
	for _, p := range pkgs {
		exports := p.Path == module || strings.Contains(p.Path+"/", "/internal/")
		checked := func(name string) bool {
			return name != "_" && (token.IsExported(name) && exports || !token.IsExported(name))
		}
		add := func(obj types.Object, name string, node ast.Node) *decl {
			d := &decl{
				name:    p.Path + "." + name,
				spans:   spans{{node.Pos(), node.End()}},
				surface: p.Path == module && token.IsExported(name),
			}
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
							obj := p.Info.Defs[spec.Name]
							if checked(spec.Name.Name) {
								byType[obj] = add(obj, spec.Name.Name, spec)
							}
							if it, ok := spec.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, n := range m.Names {
										if checked(n.Name) {
											add(p.Info.Defs[n], spec.Name.Name+"."+n.Name, m)
										}
									}
								}
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
// end in _test) and a report of whether a position lies in an Example
// function.
func checkTests(l *Loader, p *Package, record func(info *types.Info, path string, example func(token.Pos) bool)) error {
	names, err := filepath.Glob(filepath.Join(p.Dir, "*_test.go"))
	if err != nil {
		return err
	}
	var internal, external []*ast.File
	var examples spans
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, 0)
		if err != nil {
			return err
		}
		if f.Name.Name == p.Types.Name() {
			internal = append(internal, f)
			continue
		}
		external = append(external, f)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
				examples = append(examples, [2]token.Pos{fd.Pos(), fd.End()})
			}
		}
	}
	// check type-checks files as package path, resolving p's own import
	// path to self, and records the uses in the recorded files. When self
	// is not the loaded package, it also type-checks anew against self
	// every in-module package whose import graph reaches p, as go test
	// rebuilds an external test's imports against the package with its
	// test files.
	check := func(path string, self *types.Package, files, recorded []*ast.File) (*types.Package, error) {
		info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
		resolved := map[string]*types.Package{p.Path: self}
		var imp importerFunc
		imp = func(path string) (*types.Package, error) {
			if pkg, ok := resolved[path]; ok {
				return pkg, nil
			}
			pkg, err := l.Import(path)
			if lp, ok := l.cache[path]; err == nil && ok && self != p.Types && reaches(pkg, p.Path) {
				cfg := types.Config{Importer: imp}
				if pkg, err = cfg.Check(path, l.fset, lp.Syntax, nil); err == nil {
					resolved[path] = pkg
				}
			}
			return pkg, err
		}
		cfg := types.Config{Importer: imp}
		tpkg, err := cfg.Check(path, l.fset, files, info)
		if err != nil {
			return nil, err
		}
		for id := range info.Uses {
			if fileAt(recorded, id.Pos()) == nil {
				delete(info.Uses, id)
			}
		}
		record(info, path, examples.encloses)
		return tpkg, nil
	}
	augmented := p.Types
	if len(internal) > 0 {
		if augmented, err = check(p.Path, nil, append(append([]*ast.File(nil), p.Syntax...), internal...), internal); err != nil {
			return fmt.Errorf("typecheck tests of %s: %v", p.Path, err)
		}
	}
	if len(external) > 0 {
		// An external test sees the package with its in-package test files
		// when it uses their declarations, and its imports that import the
		// package rebuilt against that; try the loaded packages first.
		if _, err := check(p.Path+"_test", p.Types, external, external); err != nil {
			if _, err := check(p.Path+"_test", augmented, external, external); err != nil {
				return fmt.Errorf("typecheck tests of %s_test: %v", p.Path, err)
			}
		}
	}
	return nil
}

// reaches reports whether pkg is the package at path or imports it,
// directly or not.
func reaches(pkg *types.Package, path string) bool {
	if pkg.Path() == path {
		return true
	}
	for _, imp := range pkg.Imports() {
		if reaches(imp, path) {
			return true
		}
	}
	return false
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
