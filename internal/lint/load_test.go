package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path   string // import path
	Dir    string
	Fset   *token.FileSet
	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// Loader parses and type-checks packages without the go toolchain or any
// external module: in-module import paths resolve to directories under
// the module root, everything else type-checks from GOROOT source via the
// standard library's source importer. That keeps the suite runnable in
// the offline build environment and free of x/tools.
type Loader struct {
	root   string // module root (contains go.mod) or a testdata src root
	module string // module path from go.mod; "" for testdata roots

	fset    *token.FileSet
	std     types.Importer
	cache   map[string]*Package
	loading map[string]bool
}

func newLoader(root, module string) *Loader {
	// The source importer type-checks the standard library from GOROOT
	// source through go/build; with cgo enabled it would stop at the cgo
	// halves of net and os/user. The pure-Go fallbacks type-check fully,
	// and the analyzers only need types, not the platform build.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		root:    root,
		module:  module,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// NewLoader returns a loader rooted at the module directory root, reading
// the module path from its go.mod.
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: loader: %w", err)
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("lint: loader: no module line in %s/go.mod", root)
	}
	return newLoader(root, module), nil
}

// dirFor maps an import path to a directory under the loader's root, or
// ok=false when the path is external (standard library).
func (l *Loader) dirFor(path string) (string, bool) {
	switch {
	case l.module != "" && path == l.module:
		return l.root, true
	case l.module != "":
		if rest, ok := strings.CutPrefix(path, l.module+"/"); ok {
			return filepath.Join(l.root, filepath.FromSlash(rest)), true
		}
		return "", false
	default:
		dir := filepath.Join(l.root, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
		return "", false
	}
}

// Import implements types.Importer over the same resolution rules, so
// type-checking one module package pulls its in-module dependencies
// through the loader (and caches them).
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p.Types, nil
	}
	if dir, ok := l.dirFor(path); ok {
		p, err := l.loadDir(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// loadDir parses and type-checks the single package in dir (non-test
// files only: the determinism contract deliberately exempts tests, and
// test files may import packages outside the offline resolution rules).
func (l *Loader) loadDir(path, dir string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := types.Config{Importer: l}
	tpkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Syntax: files, Types: tpkg, Info: info}
	l.cache[path] = p
	return p, nil
}

// goFilesIn lists the non-test .go files of dir, sorted.
func goFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Load resolves go-style patterns to packages: "./..." (every package
// under the root), "dir/..." or "./dir/..." (every package under dir),
// and plain directories ("./internal/cache", "internal/cache"). Paths
// are relative to the loader root.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		}
		if pat == "." || pat == "" {
			pat = "."
		}
		dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		fi, err := os.Stat(dir)
		if err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("lint: no such package directory: %s", pat)
		}
		if !recursive {
			add(dir)
			continue
		}
		err = filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if names, err := goFilesIn(p); err == nil && len(names) > 0 {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return nil, err
		}
		path := l.module
		if rel != "." {
			if l.module != "" {
				path = l.module + "/" + filepath.ToSlash(rel)
			} else {
				path = filepath.ToSlash(rel)
			}
		}
		p, err := l.loadDir(path, dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
