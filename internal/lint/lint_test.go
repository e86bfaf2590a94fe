// Package lint is the repository's custom static-analysis suite: a set
// of analyzers that turn the project's two load-bearing contracts into
// machine-checked invariants.
//
//   - Determinism. MBPTA is only sound if every source of randomness in a
//     result-affecting package is one of the controlled, seed-derived
//     PRNG streams: a stray time.Now, math/rand draw, environment read
//     or unsorted map iteration silently breaks the i.i.d. premise of
//     the whole analysis (and reseed-reproducibility with it).
//   - Zero-alloc hot paths. The compiled replay kernels are trusted
//     because they stay bit-exact and allocation-free against the
//     per-access reference oracle in the tests; a defer, closure or fmt
//     call on an annotated hot path defeats that contract long before a
//     benchmark notices.
//
// The analyzers mirror the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but are self-contained on the standard
// library go/ast + go/types stack, so the module keeps zero external
// dependencies. Porting an analyzer to the upstream framework is a
// mechanical wrap of its Run function.
//
// The package has only test files: code that exists to check other code
// is not part of the program. Two tests of gate_test.go run the suite on
// the module as part of go test: TestSelfRun applies Default() to every
// package, and TestNoHeapEscapeInHotpath intersects the compiler's
// escape analysis with the //rm:hotpath spans. Both skip under -short.
//
// Source annotations recognized by the suite:
//
//	//rm:hotpath
//	    In a function's doc comment: the function is part of the
//	    zero-alloc replay contract. The hotpath analyzer checks its body
//	    and TestNoHeapEscapeInHotpath gates the compiler's escape
//	    analysis over its line span.
//
//	//rm:deterministic <justification>
//	    Trailing on a statement (or on the line directly above it):
//	    suppresses determinism and prngdiscipline findings for that
//	    statement. The justification text is mandatory; an empty one is
//	    itself a finding.
//
//	//rm:ctxroot <justification>
//	    Same placement rules: justifies a context.Background()/TODO()
//	    root outside main packages and tests (server lifecycle roots,
//	    deprecated blocking shims).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding of one analyzer at one position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named invariant checker. Run inspects a single
// type-checked package through its Pass and reports findings via
// Pass.Reportf; returned errors abort the whole lint run (they mean the
// analyzer itself failed, not that the code has findings).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Path     string // import path of the package under analysis
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)

	// annotations caches the //rm: comment lines per file, keyed by the
	// line the comment sits on: line -> "key justification".
	annotations map[*ast.File]map[int]string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// annotationPrefix is the marker shared by every in-source annotation the
// suite understands.
const annotationPrefix = "//rm:"

// annotationsFor scans (once) the //rm: comments of f.
func (p *Pass) annotationsFor(f *ast.File) map[int]string {
	if p.annotations == nil {
		p.annotations = make(map[*ast.File]map[int]string)
	}
	if m, ok := p.annotations[f]; ok {
		return m
	}
	m := make(map[int]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, annotationPrefix) {
				continue
			}
			line := p.Fset.Position(c.Pos()).Line
			m[line] = strings.TrimPrefix(c.Text, annotationPrefix)
		}
	}
	p.annotations[f] = m
	return m
}

// FileOf returns the *ast.File containing pos.
func (p *Pass) FileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// Suppressed reports whether the statement at pos carries an //rm:<key>
// justification — trailing on the same line or alone on the line directly
// above. An annotation with an empty justification does not suppress;
// it is reported as its own finding (the contract requires saying *why*
// the rule is waived, so the reviewer and the next reader can audit it).
func (p *Pass) Suppressed(pos token.Pos, key string) bool {
	f := p.FileOf(pos)
	if f == nil {
		return false
	}
	ann := p.annotationsFor(f)
	line := p.Fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		text, ok := ann[l]
		if !ok || !strings.HasPrefix(text, key) {
			continue
		}
		rest := strings.TrimPrefix(text, key)
		if rest != "" && !strings.HasPrefix(rest, " ") {
			continue // different key sharing the prefix
		}
		if strings.TrimSpace(rest) == "" {
			p.Reportf(pos, "//rm:%s annotation needs a justification (say why the rule is waived)", key)
			return true // the annotation finding replaces the original
		}
		return true
	}
	return false
}

// IsHotpath reports whether doc (a function's doc comment) carries the
// //rm:hotpath annotation.
func IsHotpath(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == "//rm:hotpath" || strings.HasPrefix(c.Text, "//rm:hotpath ") {
			return true
		}
	}
	return false
}

// HotpathFuncs returns the //rm:hotpath-annotated function declarations
// of the package, in file order.
func HotpathFuncs(p *Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && IsHotpath(fd.Doc) {
				out = append(out, fd)
			}
		}
	}
	return out
}

// HotpathSpan is the source line range of one //rm:hotpath-annotated
// function, which TestNoHeapEscapeInHotpath intersects with the
// compiler's escape analysis.
type HotpathSpan struct {
	Name  string // function (or method) name
	File  string
	Start int // line of the func keyword
	End   int // line of the closing brace
}

// HotpathSpans lists the annotated function spans of a loaded package.
func HotpathSpans(pkg *Package) []HotpathSpan {
	var out []HotpathSpan
	for _, f := range pkg.Syntax {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !IsHotpath(fd.Doc) {
				continue
			}
			start := pkg.Fset.Position(fd.Pos())
			end := pkg.Fset.Position(fd.End())
			out = append(out, HotpathSpan{Name: fd.Name.Name, File: start.Filename, Start: start.Line, End: end.Line})
		}
	}
	return out
}

// isTestFile reports whether pos lies in a _test.go file. The module
// loader never feeds test files to analyzers, but fixtures and future
// callers may.
func (p *Pass) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// calleeOf resolves the called object of a call expression, looking
// through parentheses; nil when the callee is not a named function or
// method (e.g. a called function value).
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is the package-level function pkgPath.name.
// pkgPath matches exactly or by path suffix "/<pkgPath>", so analyzers
// recognize both the real module packages and their testdata stand-ins.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	got := obj.Pkg().Path()
	return got == pkgPath || strings.HasSuffix(got, "/"+pkgPath)
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Path:     pkg.Path,
				Files:    pkg.Syntax,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// Default returns the full suite with the repository's production
// configuration — what TestSelfRun runs.
func Default() []*Analyzer {
	return []*Analyzer{
		Determinism(DefaultDeterminismPackages()),
		Hotpath(),
		PRNGDiscipline(),
		CtxFlow(),
	}
}

// DefaultDeterminismPackages lists the result-affecting packages: the
// ones whose outputs feed campaign results, and in which uncontrolled
// nondeterminism would invalidate MBPTA soundness or break the
// bit-exactness contract of the compiled kernels.
func DefaultDeterminismPackages() []string {
	return []string{
		"repro/internal/cache",
		"repro/internal/sim",
		"repro/internal/core",
		"repro/internal/placement",
		"repro/internal/trace",
		"repro/internal/prng",
		"repro/internal/evt",
		"repro/internal/iid",
		"repro/internal/stats",
		"repro/internal/security",
		// obs is observation-only (its outputs never feed results), but it
		// is covered so every clock read it performs is an annotated,
		// audited exception rather than an invisible ambient dependency.
		"repro/internal/obs",
		// client does not feed results either, but its retry jitter is
		// seed-reproducible: ambient entropy or clock reads would make
		// its backoff tests unreplayable, so it obeys the same discipline.
		"repro/internal/client",
	}
}
