package lint

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// loadModule returns the module this package belongs to, loaded once per
// test binary: its loader and every package in it, the nested perfbench
// module's included.
func loadModule(t *testing.T) loadedModule {
	t.Helper()
	m, err := moduleOnce()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

type loadedModule struct {
	l    *Loader
	pkgs []*Package
}

var moduleOnce = sync.OnceValues(func() (loadedModule, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return loadedModule{}, err
	}
	l, err := NewLoader(root)
	if err != nil {
		return loadedModule{}, err
	}
	pkgs, err := l.Load("./...")
	return loadedModule{l, pkgs}, err
})

// TestSelfRun runs the production suite over the whole module: every
// true positive is fixed or carries a justified suppression, so it
// reports nothing. Each result-affecting package must be among those
// loaded, or the determinism analyzer would pass over nothing.
func TestSelfRun(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint in -short mode")
	}
	pkgs := loadModule(t).pkgs
	for _, path := range DefaultDeterminismPackages() {
		if !slices.ContainsFunc(pkgs, func(p *Package) bool { return p.Path == path }) {
			t.Errorf("result-affecting package %s not in the module", path)
		}
	}
	diags, err := RunAnalyzers(pkgs, Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestCleanPackagesNoFindings runs the production suite over two clean
// result-affecting packages through the module loader. Unlike the
// whole-module self-run it also runs under -short.
func TestCleanPackagesNoFindings(t *testing.T) {
	l, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/prng", "./internal/trace")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if want := []string{"repro/internal/prng", "repro/internal/trace"}; !slices.Equal(paths, want) {
		t.Fatalf("loaded %v, want %v", paths, want)
	}
	diags, err := RunAnalyzers(pkgs, Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestSeededViolationReported runs the production suite over a package
// with a defer in a //rm:hotpath function, written to a temporary
// directory outside the module, and wants exactly that finding.
func TestSeededViolationReported(t *testing.T) {
	src := t.TempDir()
	dir := filepath.Join(src, "seeded")
	if err := os.Mkdir(dir, 0o777); err != nil {
		t.Fatal(err)
	}
	code := `package seeded

func release() {}

//rm:hotpath
func Bad() {
	defer release()
}
`
	if err := os.WriteFile(filepath.Join(dir, "seeded.go"), []byte(code), 0o666); err != nil {
		t.Fatal(err)
	}
	pkgs, err := newLoader(src, "").Load("seeded")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkgs, Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != "hotpath" || !strings.Contains(diags[0].Message, "defer") {
		t.Fatalf("got %d findings %v, want one hotpath defer finding", len(diags), diags)
	}
	if diags[0].Pos.Line != 7 {
		t.Errorf("finding at line %d, want 7: %s", diags[0].Pos.Line, diags[0])
	}
}

// TestNoHeapEscapeInHotpath is the compiler half of the zero-alloc
// contract (the hotpath analyzer is the syntactic half): no line inside
// a //rm:hotpath function may escape to the heap per go build
// -gcflags=-m. It builds with the go command that runs the tests (go
// test puts its GOROOT/bin first on PATH). A warm build replays the -m
// diagnostics from the build cache, so the transcript is complete even
// when nothing recompiles; building several packages writes no output
// file.
func TestNoHeapEscapeInHotpath(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module escape analysis in -short mode")
	}
	m := loadModule(t)
	root := m.l.root
	var spans []HotpathSpan
	for _, p := range m.pkgs {
		spans = append(spans, HotpathSpans(p)...)
	}
	if !slices.ContainsFunc(spans, func(s HotpathSpan) bool { return s.Name == "RunCompiled" }) {
		t.Error("sim's RunCompiled, the campaign replay loop, has no //rm:hotpath span")
	}
	cmd := exec.Command("go", "build", "-gcflags=./...=-m -e", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	bad, err := hotpathEscapes(root, string(out), spans)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bad {
		t.Errorf("heap traffic inside a //rm:hotpath function: %s", line)
	}
	t.Logf("%d hotpath spans", len(spans))
}

// hotpathEscapes returns the lines of a go build -gcflags=-m transcript,
// built in root, that report heap traffic (an escape to the heap, or a
// variable moved to it) on a line of one of spans, first and last line
// included, each tagged with its function. The compiler names a file
// relative to root or absolutely; the spans hold the loader's absolute
// paths. No spans is an error: a gate over nothing would pass unseen.
func hotpathEscapes(root, transcript string, spans []HotpathSpan) ([]string, error) {
	if len(spans) == 0 {
		return nil, errors.New("no //rm:hotpath spans found (annotations missing?)")
	}
	byFile := make(map[string][]HotpathSpan)
	for _, s := range spans {
		f := filepath.Clean(s.File)
		byFile[f] = append(byFile[f], s)
	}
	var bad []string
	for _, line := range strings.Split(transcript, "\n") {
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		file, rest, _ := strings.Cut(line, ":")
		num, _, _ := strings.Cut(rest, ":")
		n, err := strconv.Atoi(num)
		if err != nil {
			continue
		}
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, file)
		}
		for _, s := range byFile[filepath.Clean(file)] {
			if s.Start <= n && n <= s.End {
				bad = append(bad, line+" [in //rm:hotpath func "+s.Name+"]")
				break
			}
		}
	}
	return bad, nil
}

func TestHotpathEscapes(t *testing.T) {
	root := filepath.FromSlash("/mod")
	spans := []HotpathSpan{
		{Name: "run", File: filepath.Join(root, "internal", "sim", "a.go"), Start: 10, End: 20},
		{Name: "step", File: filepath.Join(root, "internal", "sim", "a.go"), Start: 30, End: 31},
	}
	abs := filepath.Join(root, "internal", "sim", "a.go")
	transcript := strings.Join([]string{
		"# repro/internal/sim",
		"internal/sim/a.go:10:2: x escapes to heap",      // first line, module-relative
		abs + ":20:5: moved to heap: y",                  // last line, absolute
		"./internal/sim/a.go:31:3: &T{} escapes to heap", // second span, ./-relative
		"internal/sim/a.go:9:1: z escapes to heap",       // before the span
		"internal/sim/a.go:21:1: z escapes to heap",      // after it
		"internal/sim/b.go:15:1: w escapes to heap",      // same line, another file
		"sim/a.go:15:1: w escapes to heap",               // relative to another root
		"internal/sim/a.go:15:3: v does not escape",      // no heap traffic
		"internal/sim/a.go:15:3: leaking param: p",
		"internal/sim/a.go:15:6: can inline run",
	}, "\n")
	got, err := hotpathEscapes(root, transcript, spans)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/sim/a.go:10:2: x escapes to heap [in //rm:hotpath func run]",
		abs + ":20:5: moved to heap: y [in //rm:hotpath func run]",
		"./internal/sim/a.go:31:3: &T{} escapes to heap [in //rm:hotpath func step]",
	}
	if !slices.Equal(got, want) {
		t.Errorf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if _, err := hotpathEscapes(root, transcript, nil); err == nil {
		t.Error("no spans: want an error, got none")
	}
}
