// Command mbpta is the analysis half of the paper's toolchain: it applies
// the MBPTA statistical pipeline to a file of execution-time measurements
// (one number per line) -- Wald-Wolfowitz independence, two-sample KS
// identical distribution, the ET test on the extreme tail, and the Gumbel
// block-maxima fit -- and prints the pWCET estimate and curve.
//
// Usage:
//
//	mbpta -in times.txt [-cutoff 1e-15]
//
// The pipeline is core.Analyze, the one the campaign engine runs, so a
// vector written by rmsim -times gets exactly the verdict rmsim and
// rmserved report for it:
//
//	rmsim -workload canrdr01 -runs 1000 -times t.txt && mbpta -in t.txt
//
// -cutoff only picks the printed pWCET point and where the curve stops;
// it must lie in (0, 1).
// The input can also come from any external measurement source. Lines
// that are empty or start with # are skipped; a value that is NaN,
// infinite or negative fails the analysis (exit status 1).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/iid"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its exit status: 2 for a usage error, 1 for an
// unreadable or inadmissible input.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbpta", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input file: one execution time per line")
	cutoff := fs.Float64("cutoff", core.CutoffHigh, "exceedance probability of the printed pWCET point and the end of the curve")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "mbpta: -in is required")
		fs.Usage()
		return 2
	}
	if !(*cutoff > 0 && *cutoff < 1) {
		fmt.Fprintf(stderr, "mbpta: -cutoff %v: want an exceedance probability in (0, 1)\n", *cutoff)
		return 2
	}
	an, err := analyzeFile(*in)
	if err != nil {
		fmt.Fprintln(stderr, "mbpta:", err)
		return 1
	}
	fmt.Fprintf(stdout, "measurements: %d\n", an.Model.Runs)
	fmt.Fprintf(stdout, "WW  statistic %.3f  (independence passes < %.2f): %v\n", an.WW.Stat, iid.WWCritical, an.WW.Pass)
	fmt.Fprintf(stdout, "KS  p-value   %.3f  (identical distribution passes > %.2f): %v\n", an.KS.P, iid.Alpha, an.KS.Pass)
	fmt.Fprintf(stdout, "ET  p-value   %.3f  (Gumbel tail passes > %.2f): %v (tail %d pts)\n",
		an.ET.P, iid.Alpha, an.ET.Pass, an.ET.TailN)
	fmt.Fprintf(stdout, "fit Gumbel(mu=%.1f, beta=%.2f) over maxima of %d-run blocks\n",
		an.Model.Fit.Mu, an.Model.Fit.Beta, an.Model.Block)
	fmt.Fprintf(stdout, "pWCET@%.0e = %.0f\n\n", *cutoff, an.Model.AtExceedance(*cutoff))
	fmt.Fprintln(stdout, "pWCET curve (CCDF):")
	for _, pt := range an.Model.Curve(*cutoff) {
		fmt.Fprintf(stdout, "  1e%-4.0f %14.0f\n", math.Log10(pt.P), pt.X)
	}
	return 0
}

// analyzeFile reads a measurement file and runs the engine's MBPTA
// pipeline on it.
func analyzeFile(path string) (core.Analysis, error) {
	times, err := readTimes(path)
	if err != nil {
		return core.Analysis{}, err
	}
	return core.Analyze(times)
}

func readTimes(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []float64
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}
