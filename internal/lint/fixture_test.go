package lint

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The analyzer tests run one analyzer over analysistest-style fixture
// trees, mirroring golang.org/x/tools/go/analysis/analysistest on the
// standard library stack.
//
// Fixtures live under testdata/src/<pkg>; a line expecting diagnostics
// carries a trailing comment of the form
//
//	// want "regexp" "another regexp"
//
// with one quoted regular expression per expected diagnostic on that
// line. Every diagnostic must be wanted and every want must be matched,
// in both directions, or the test fails.

// wantRe matches one quoted expectation inside a // want comment:
// double-quoted (Go escapes apply) or backquoted (raw), as in
// analysistest.
var wantRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// runFixture applies the analyzer to each fixture package of
// testdata/src, comparing findings to the fixtures' want comments.
func runFixture(t *testing.T, a *Analyzer, pkgpaths ...string) {
	t.Helper()
	pkgs, diags := fixtureRun(t, a, pkgpaths...)
	wants := collectWants(t, pkgs)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", a.Name, d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none", a.Name, w.file, w.line, w.re)
		}
	}
}

// fixtureFindings returns the raw diagnostics of the analyzer on the
// fixture packages, for tests that assert on counts or suppression
// behaviour directly.
func fixtureFindings(t *testing.T, a *Analyzer, pkgpaths ...string) []Diagnostic {
	t.Helper()
	_, diags := fixtureRun(t, a, pkgpaths...)
	return diags
}

// fixtureRun loads the fixture packages from testdata/src, where import
// path "x" resolves to testdata/src/x, and applies the analyzer.
func fixtureRun(t *testing.T, a *Analyzer, pkgpaths ...string) ([]*Package, []Diagnostic) {
	t.Helper()
	pkgs, err := newLoader(filepath.Join("testdata", "src"), "").Load(pkgpaths...)
	if err != nil {
		t.Fatalf("load %v: %v", pkgpaths, err)
	}
	diags, err := RunAnalyzers(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	return pkgs, diags
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants scans every fixture file's comments for want
// expectations.
func collectWants(t *testing.T, pkgs []*Package) []want {
	t.Helper()
	var wants []want
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
						pat := m[2] // backquoted: raw
						if m[1] != "" || m[2] == "" {
							var err error
							pat, err = strconv.Unquote(`"` + m[1] + `"`)
							if err != nil {
								t.Fatalf("%s: bad want pattern %s: %v", pos, m[0], err)
							}
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
						}
						wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixtures declare no // want expectations")
	}
	return wants
}
