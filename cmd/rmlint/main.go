// Command rmlint runs the repository's custom static-analysis suite
// (internal/lint): the determinism, hotpath, prngdiscipline and ctxflow
// analyzers that machine-check the MBPTA determinism contract and the
// zero-alloc contract of the compiled replay kernels.
//
// Usage:
//
//	rmlint [-hotpath] [packages...]
//
// Packages default to ./... and use go-style patterns relative to the
// module root ("./...", "./internal/cache", "internal/sim/...").
// Findings print one per line as file:line:col: analyzer: message.
//
// Exit codes follow the house convention: 0 clean, 1 findings (or a
// runtime failure), 2 usage error.
//
//	-hotpath  print the //rm:hotpath-annotated function spans as
//	          file:start:end:name (the input of scripts/check-noalloc.sh)
//	          instead of linting
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	hotpath := fs.Bool("hotpath", false, "print //rm:hotpath function spans (file:start:end:name) instead of linting")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "rmlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "rmlint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		// Unresolvable patterns are usage errors, exit 2, the convention
		// shared by all the CLIs (cf. paperbench -exp).
		fmt.Fprintln(stderr, "rmlint:", err)
		return 2
	}

	if *hotpath {
		for _, pkg := range pkgs {
			for _, s := range lint.HotpathSpans(pkg) {
				fmt.Fprintf(stdout, "%s:%d:%d:%s\n", relPath(s.File), s.Start, s.End, s.Name)
			}
		}
		return 0
	}

	diags, err := lint.RunAnalyzers(pkgs, lint.Default())
	if err != nil {
		fmt.Fprintln(stderr, "rmlint:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "rmlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory (run inside the module)")
		}
		dir = parent
	}
}

// relPath shortens p relative to the working directory when possible,
// keeping findings clickable from the repo root.
func relPath(p string) string {
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	if rel, err := filepath.Rel(wd, p); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return p
}
