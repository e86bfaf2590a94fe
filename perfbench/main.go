// Command perfbench is the repository benchmark. It runs one workload
// against the campaign engine or the campaign service, checks every
// simulated result against recorded digests, and prints the workload's
// metrics; the last line of its output is one JSON object. See README.md
// for the workloads, the metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/service"
)

// config is one benchmark run.
type config struct {
	def       workloadDef
	seed      uint64
	seconds   float64
	trace     bool
	setupReps int               // set-ups timed per run, spread over the window; setup_s is their median
	maxMisses int               // stop after this many misses (0: run the whole window)
	golden    map[string]string // fingerprint -> digest, for this workload
}

// workers is the engine pool size: single-core throughput is the figure
// of merit.
const workers = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed: campaign selection, order and hit targets derive from it")
	seconds := flag.Float64("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	rec := flag.String("record", "", "run the workload's whole catalog once and record its digests into this file")
	flag.Parse()
	def, err := workloadByName(*name)
	if err != nil || flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	}
	g, err := loadGoldens()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{
		def: def, seed: *seed, seconds: *seconds, trace: *trace == 1,
		setupReps: 9, golden: g[def.name],
	}
	// A run that overran every budget would be cut by the caller anyway;
	// the deadline turns that into a clean failure instead.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if *rec != "" {
		if err := record(ctx, cfg, *rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run executes one benchmark run and returns its report.
func run(ctx context.Context, cfg config) (report, error) {
	if len(cfg.golden) == 0 {
		return report{}, fmt.Errorf("no recorded digests for workload %s", cfg.def.name)
	}
	ref, err := newReference()
	if err != nil {
		return report{}, err
	}
	s, first, err := setUp(ctx, cfg, ref)
	if err != nil {
		return report{}, err
	}
	defer s.close()
	win := cfg
	if cfg.trace {
		// The traced pass follows the window with the layer probes and
		// the campaign pairs; a third of the budget for the window and
		// for the pairs keeps a traced run about as long as an untraced
		// one.
		win.seconds = cfg.seconds / 3
	}
	before := storeStats(s)
	t, elapsed, err := measure(ctx, win, s, ref)
	if err != nil {
		return report{}, err
	}
	after := storeStats(s)
	if err := ctx.Err(); err != nil {
		return report{}, fmt.Errorf("run cut short: %w", err)
	}

	m := map[string]metric{}
	attempted, failed := t.attempted, t.failed
	failures := t.failures
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return report{}, err
		}
		runs, accesses, requests := t.rates()
		m["setup_s"] = metric{median(append(t.setupSecs, first)), "s"}
		m["peak_rss_mb"] = metric{rss, "MB"}
		m["runs_per_s"] = metric{runs, "1/s"}
		m["maccesses_per_s"] = metric{accesses / 1e6, "Macc/s"}
		m["requests_per_s"] = metric{requests, "1/s"}
		m["miss_p50_ms"] = metric{quantile(t.misses, 0.5), "ms"}
		m["miss_p90_ms"] = metric{quantile(t.misses, 0.9), "ms"}
		if cfg.def.hits > 0 {
			m["hit_p50_ms"] = metric{quantile(t.hits, 0.5), "ms"}
			m["hit_p90_ms"] = metric{quantile(t.hits, 0.9), "ms"}
		} else {
			// The engine keeps no results, so a repeated campaign runs
			// again: its latency is a miss's. Every workload reports every
			// end-to-end metric.
			m["hit_p50_ms"] = m["miss_p50_ms"]
			m["hit_p90_ms"] = m["miss_p90_ms"]
		}
	} else {
		lt, err := traced(ctx, cfg, t, after.Hits-before.Hits, after.Misses-before.Misses, m)
		if err != nil {
			return report{}, err
		}
		attempted += lt.attempted
		failed += lt.failed
		failures = append(failures, lt.failures...)
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", f)
	}
	rep := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
	logReport(cfg, rep, t, elapsed)
	return rep, nil
}

// storeStats snapshots the service's result store counters; the engine
// has no store.
func storeStats(s sut) service.StoreStats {
	if srv, ok := s.(*serviceSUT); ok {
		return srv.srv.Store().Stats()
	}
	return service.StoreStats{}
}

// logReport prints one line per metric with its unit, then the error
// rate, ahead of the JSON line.
func logReport(cfg config, rep report, t *tally, elapsed time.Duration) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d trace=%t window=%.1fs rounds=%d misses=%d hits=%d\n",
		cfg.def.name, cfg.seed, cfg.trace, elapsed.Seconds(), len(t.roundSecs), len(t.misses), len(t.hits))
	fmt.Printf("# round seconds, nominal:")
	for _, sec := range t.roundSecs {
		fmt.Printf(" %.3f", sec)
	}
	fmt.Println()
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	fmt.Printf("%-32s %14.6g %s (%d of %d failed)\n", "error_rate",
		float64(rep.Failed)/float64(max(rep.Attempted, 1)), "ratio", rep.Failed, rep.Attempted)
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}
