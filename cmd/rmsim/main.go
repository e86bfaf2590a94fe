// Command rmsim runs one measurement campaign on the simulated LEON3-like
// platform and reports execution-time statistics, per-level miss ratios,
// and optionally the raw per-run times for external analysis.
//
// Usage:
//
//	rmsim -workload tblook01 -placement RM -runs 1000 [-workers N] [-seed N] [-times out.txt]
//
// The campaign runs on the context-aware Engine: Ctrl-C cancels it
// mid-campaign instead of waiting for the remaining runs.
//
// Placement selects the L1 policy (Modulo, XORFold, hRP, RM, RM-rot); the
// L2 follows the paper's setup (hRP with random replacement) unless
// -placement Modulo is chosen, which selects the fully deterministic
// modulo+LRU platform.
//
// Instead of a built-in workload, -trace replays a valgrind lackey
// capture (valgrind --tool=lackey --trace-mem=yes) through the simulated
// memory hierarchy; the capture's addresses are replayed verbatim, so
// run-to-run variation comes from the randomized caches alone.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	wname := flag.String("workload", "synth20k", "workload name (see -list)")
	pname := flag.String("placement", "RM", "L1 placement: Modulo, XORFold, hRP, RM, RM-rot")
	runs := flag.Int("runs", 300, "number of runs (seeds)")
	workers := flag.Int("workers", 0, "campaign worker-pool size (0 = GOMAXPROCS; any value yields identical times)")
	seed := flag.Uint64("seed", experimentsSeed, "master seed")
	timesOut := flag.String("times", "", "write raw per-run cycle counts to this file")
	tracePath := flag.String("trace", "", "replay a valgrind lackey capture instead of a built-in workload")
	list := flag.Bool("list", false, "list available workloads and exit")
	flag.Parse()

	if *list {
		for _, w := range workload.All() {
			fmt.Printf("%-10s %s\n", w.Name, w.Description)
		}
		return
	}

	var w workload.Workload
	var kind placement.Kind
	var err error
	if *tracePath != "" {
		kind, err = placement.ParseKind(*pname)
		if err != nil {
			usageFatal(err)
		}
		w, err = loadLackeyWorkload(*tracePath)
		if err != nil {
			fatal(err)
		}
	} else {
		w, kind, err = core.ResolveNames(*wname, *pname)
		if err != nil {
			usageFatal(err)
		}
	}

	spec := core.PlatformFor(kind)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	eng := core.NewEngine(core.WithWorkers(*workers))
	res, err := eng.Run(ctx, core.Request{
		Spec: spec, Workload: w, Runs: *runs, MasterSeed: *seed,
		Analyze: *runs >= 40,
	})
	if err != nil && res.Summary.Moments.N < int64(*runs) {
		fatal(err) // the campaign itself failed
	}

	fmt.Printf("workload  %s (%s)\n", w.Name, w.Description)
	fmt.Printf("platform  L1=%s  runs=%d  accesses/run=%d (F=%d L=%d S=%d)\n",
		kind, *runs, res.Trace.Accesses, res.Trace.Fetches, res.Trace.Loads, res.Trace.Stores)
	fmt.Printf("cycles    min=%.0f  mean=%.0f  max=%.0f  sd=%.0f\n",
		stats.Min(res.Times), res.Mean(), res.HWM(), stats.StdDev(res.Times))
	fmt.Printf("misses    IL1=%.4f  DL1=%.4f  L2=%.4f\n", res.IL1Miss, res.DL1Miss, res.L2Miss)

	if err != nil {
		fatal(err) // every run completed; their analysis failed
	}
	if an := res.Analysis; an != nil {
		fmt.Printf("iid       WW=%.2f (<1.96)  KSp=%.2f (>0.05)  ETp=%.2f (>0.05)  pass=%v\n",
			an.WW.Stat, an.KS.P, an.ET.P, an.IIDPass && an.ET.Pass)
		fmt.Printf("gumbel    mu=%.0f  beta=%.1f  (block %d)\n",
			an.Model.Fit.Mu, an.Model.Fit.Beta, an.Model.Block)
		fmt.Printf("pWCET     1e-12: %.0f   1e-15: %.0f\n", an.PWCET12, an.PWCET15)
	}

	if *timesOut != "" {
		var b strings.Builder
		for _, x := range res.Times {
			b.WriteString(strconv.FormatFloat(x, 'f', 0, 64))
			b.WriteByte('\n')
		}
		if err := os.WriteFile(*timesOut, []byte(b.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d measurements to %s\n", len(res.Times), *timesOut)
	}
}

const experimentsSeed = 0x9A9E6

// loadLackeyWorkload parses a valgrind lackey capture and wraps it as a
// fixed-trace workload named after the file.
func loadLackeyWorkload(path string) (workload.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return workload.Workload{}, err
	}
	defer f.Close()
	tr, err := trace.ParseLackey(f)
	if err != nil {
		return workload.Workload{}, fmt.Errorf("%s: %w", path, err)
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return workload.FromTrace(name, "valgrind lackey capture", tr), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmsim:", err)
	os.Exit(1)
}

// usageFatal reports a bad flag value (unknown workload or placement
// name) with the usage exit code.
func usageFatal(err error) {
	fmt.Fprintln(os.Stderr, "rmsim:", err)
	os.Exit(2)
}
