package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOut invokes run with captured stdout/stderr.
func runOut(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"./no/such/package/dir"},
	} {
		code, _, stderr := runOut(t, args...)
		if code != 2 {
			t.Errorf("rmlint %v: exit %d, want 2 (stderr: %s)", args, code, stderr)
		}
	}
}

func TestCleanPackagesExit0(t *testing.T) {
	code, out, stderr := runOut(t, "./internal/prng", "./internal/trace")
	if code != 0 {
		t.Fatalf("rmlint on clean packages: exit %d, want 0\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	if out != "" {
		t.Fatalf("rmlint on clean packages printed findings:\n%s", out)
	}
}

func TestFindingsExit1(t *testing.T) {
	// Seed a violating package inside the module so the loader can reach
	// it, then expect a hotpath finding and exit 1.
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(root, "rmlint_seeded_violation_")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	src := `package seeded

//rm:hotpath
func Bad() {
	defer func() {}()
}
`
	if err := os.WriteFile(filepath.Join(dir, "seeded.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	code, out, stderr := runOut(t, filepath.Base(dir))
	if code != 1 {
		t.Fatalf("rmlint on seeded violation: exit %d, want 1\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	if !strings.Contains(out, "hotpath") || !strings.Contains(out, "defer") {
		t.Fatalf("rmlint finding output missing hotpath/defer:\n%s", out)
	}
}

func TestHotpathSpans(t *testing.T) {
	code, out, stderr := runOut(t, "-hotpath", "./internal/sim")
	if code != 0 {
		t.Fatalf("rmlint -hotpath: exit %d, want 0\nstderr: %s", code, stderr)
	}
	if !strings.Contains(out, "RunCompiled") {
		t.Fatalf("rmlint -hotpath ./internal/sim output missing RunCompiled:\n%s", out)
	}
	// file:start:end:name, one per line.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Count(line, ":") < 3 {
			t.Fatalf("malformed span line %q", line)
		}
	}
}

// TestSelfRun is the acceptance smoke: the suite over the whole module
// reports zero findings (every true positive is fixed or carries a
// justified suppression).
func TestSelfRun(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module self-run in -short mode")
	}
	code, out, stderr := runOut(t, "./...")
	if code != 0 {
		t.Fatalf("rmlint ./...: exit %d, want 0\nstdout: %s\nstderr: %s", code, out, stderr)
	}
}
