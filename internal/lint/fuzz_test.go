package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fuzzLine matches a Makefile command that fuzzes one target: the
// target's name and the package directory it runs in.
var fuzzLine = regexp.MustCompile(`-fuzz=(\w+)\s.*\s(\./\S+)\s*$`)

// TestFuzzShortListsEveryTarget holds `make fuzz-short`, which CI runs,
// to the module's fuzz targets: every top-level func Fuzz... of a
// _test.go file (testdata and nested modules aside) must have a line
// there that fuzzes it in its own package, and every such line must
// name one of them.
func TestFuzzShortListsEveryTarget(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var targets []string // "./dir Name"
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module, which make fuzz-short does not reach
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				targets = append(targets, "./"+filepath.ToSlash(rel)+" "+fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("no fuzz targets found in the module")
	}
	listed, err := fuzzShortTargets(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range targets {
		if !slices.Contains(listed, tg) {
			t.Errorf("fuzz target %s is missing from make fuzz-short", tg)
		}
	}
	for _, tg := range listed {
		if !slices.Contains(targets, tg) {
			t.Errorf("make fuzz-short fuzzes %s, which is no fuzz target", tg)
		}
	}
}

// fuzzShortTargets returns the "./dir Name" pairs the fuzz-short recipe
// of the Makefile at path fuzzes.
func fuzzShortTargets(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "fuzz-short:"):
			in = true
		case in && !strings.HasPrefix(line, "\t"):
			return out, nil
		case in:
			if m := fuzzLine.FindStringSubmatch(line); m != nil {
				out = append(out, m[2]+" "+m[1])
			}
		}
	}
	return out, nil
}
