// Command paperbench regenerates every table and figure of the paper's
// evaluation section on the simulated platform:
//
//	Table 1     ASIC & FPGA implementation results (hardware-cost model)
//	Table 2     WW and KS (and ET) statistics for the EEMBC suite under RM
//	Figure 1    illustrative pWCET curve
//	Figure 4a   RM pWCET normalized to hRP
//	Figure 4b   RM pWCET vs deterministic high-water mark
//	Figure 5    synthetic kernel PDFs and pWCET curves (8/20/160KB)
//	Section 4.4 average performance of RM vs modulo
//	Section 3.1 within-segment collision probability analysis
//	ablations   replacement policy, L2 policy, RM variant
//
// Usage:
//
//	paperbench [-exp all|table1|table2|fig1|fig4a|fig4b|fig5|avgperf|collision|ablations|multicore|convergence]
//	           [-full|-short] [-workers N] [-timeout d] [-progress] [-csv dir] [-json path]
//	           [-metrics path] [-cpuprofile path] [-memprofile path] [-resume-check]
//
// -full restores the paper's campaign sizes (1000 runs per benchmark);
// -short shrinks them to a smoke-test scale; the default regenerates
// everything in a few minutes. All experiments run on one shared Engine
// pool (-workers sets its size, default GOMAXPROCS; results are
// bit-identical for any value, see REPRO_WORKERS). -timeout bounds the
// whole regeneration via context cancellation, -progress forces the live
// per-campaign progress line (default: only when stderr is a terminal),
// and -csv writes machine-readable series for plotting. -json writes a
// per-campaign summary (name, HWM, mean, pWCET quantiles, wall time) so
// the performance trajectory can be tracked across code changes.
// -metrics writes the observability registry (campaign latency histograms
// with p50/p99/p999 per campaign kind, run counters, pool occupancy) plus
// the recent campaign trace spans as a JSON document at exit.
// -resume-check reruns every campaign through the crash path — interrupt
// at the first checkpoint past the midpoint, round-trip the checkpoint
// blob through the wire codec, resume to completion — so the bench
// trajectory regenerated under it must stay bit-identical to the
// committed snapshots (TestTrajectoryMatchesCommittedSnapshots).
// -cpuprofile and -memprofile write pprof profiles of the regeneration
// (the whole run for CPU; a heap snapshot at exit for memory), so
// hot-path regressions can be profiled without editing the harness:
//
//	go run ./cmd/paperbench -exp table2 -short -cpuprofile cpu.out
//	go tool pprof cpu.out
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/security"
)

// experimentNames lists the valid -exp values in execution order; an
// unknown name is a usage error, not a silent no-op.
var experimentNames = []string{
	"table1", "table2", "fig1", "fig4a", "fig4b", "fig5",
	"avgperf", "collision", "ablations", "multicore", "convergence",
	"security-evict", "security-occupancy", "security-primeprobe",
}

// validateExp checks an -exp value against the registry.
func validateExp(name string) error {
	if name == "all" {
		return nil
	}
	for _, n := range experimentNames {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("unknown experiment %q (valid: all, %s)", name, strings.Join(experimentNames, ", "))
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, "+strings.Join(experimentNames, ", ")+")")
	full := flag.Bool("full", false, "use the paper's campaign sizes (1000 runs)")
	short := flag.Bool("short", false, "smoke-test scale (smallest campaigns that clear the statistical floors)")
	workers := flag.Int("workers", experiments.WorkersFromEnv(), "shared engine pool size (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the whole regeneration after this long (0 = no limit)")
	progress := flag.Bool("progress", stderrIsTerminal(), "live per-campaign progress line on stderr")
	csvDir := flag.String("csv", "", "directory for machine-readable CSV output (optional)")
	jsonPath := flag.String("json", "", "write machine-readable per-campaign results (name, HWM, mean, pWCET quantiles, wall time) to this file")
	metricsPath := flag.String("metrics", "", "write the metrics registry (campaign latency histograms with p50/p99/p999, run counters) and recent trace spans as JSON to this file")
	resumeCheck := flag.Bool("resume-check", false, "execute every campaign as an interrupted-and-resumed pair (checkpoint at the midpoint, wire round-trip, resume); results must be bit-identical to plain runs")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the regeneration to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if err := validateExp(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(2)
	}
	if *full && *short {
		fmt.Fprintln(os.Stderr, "paperbench: -full and -short are mutually exclusive")
		os.Exit(2)
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(2)
	}
	defer stopProfiles()

	scale := experiments.FromEnv()
	if *full {
		scale = experiments.FullScale()
	}
	if *short {
		scale = experiments.SmokeScale()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []core.EngineOption{core.WithWorkers(*workers)}
	if *resumeCheck {
		opts = append(opts, core.WithCheckpointReplay())
	}
	var meter *progressMeter
	var recorder *resultRecorder
	var collector *obs.EngineCollector
	var registry *obs.Registry
	if *jsonPath != "" {
		recorder = newResultRecorder()
	}
	if *metricsPath != "" {
		registry = obs.NewRegistry()
		collector = obs.NewEngineCollector(registry, nil)
	}
	if *progress || recorder != nil || collector != nil {
		if *progress {
			meter = newProgressMeter(os.Stderr)
		}
		opts = append(opts, core.WithEvents(func(ev core.Event) {
			if collector != nil {
				collector.Observe(ev)
			}
			if recorder != nil {
				recorder.observe(ev)
			}
			if meter != nil {
				meter.observe(ev)
			}
		}))
	}
	eng := core.NewEngine(opts...)
	if registry != nil {
		obs.RegisterPool(registry, eng.Pool())
	}

	run := func(name string, f func() (string, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		if recorder != nil {
			recorder.setExperiment(name)
		}
		out, err := f()
		if meter != nil {
			meter.clear()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", name, err)
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "paperbench: -timeout %v exceeded\n", *timeout)
			}
			stopProfiles()
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() (string, error) {
		return experiments.Table1().Render(), nil
	})
	run("table2", func() (string, error) {
		r, err := experiments.Table2(ctx, eng, scale)
		if err != nil {
			return "", err
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, "table2.csv", table2CSV(r)); err != nil {
				return "", err
			}
		}
		return r.Render(), nil
	})
	run("fig1", func() (string, error) {
		r, err := experiments.Figure1(ctx, eng, scale)
		if err != nil {
			return "", err
		}
		if *csvDir != "" {
			var rows [][]string
			rows = append(rows, []string{"exceedance", "cycles"})
			for _, p := range r.Curve {
				rows = append(rows, []string{fmt.Sprintf("%g", p.P), fmt.Sprintf("%.0f", p.X)})
			}
			if err := writeCSV(*csvDir, "fig1.csv", rows); err != nil {
				return "", err
			}
		}
		return r.Render(), nil
	})
	run("fig4a", func() (string, error) {
		r, err := experiments.Figure4a(ctx, eng, scale)
		if err != nil {
			return "", err
		}
		if *csvDir != "" {
			var rows [][]string
			rows = append(rows, []string{"benchmark", "pwcet_rm", "pwcet_hrp", "ratio"})
			for _, row := range r.Rows {
				rows = append(rows, []string{row.Bench,
					fmt.Sprintf("%.0f", row.RM), fmt.Sprintf("%.0f", row.HRP),
					fmt.Sprintf("%.4f", row.Ratio)})
			}
			if err := writeCSV(*csvDir, "fig4a.csv", rows); err != nil {
				return "", err
			}
		}
		return r.Render(), nil
	})
	run("fig4b", func() (string, error) {
		r, err := experiments.Figure4b(ctx, eng, scale)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("fig5", func() (string, error) {
		var b strings.Builder
		for _, kb := range []int{8, 20, 160} {
			r, err := experiments.Figure5(ctx, eng, scale, kb)
			if err != nil {
				return "", err
			}
			b.WriteString(r.Render())
			b.WriteString("\n")
			if *csvDir != "" {
				var rows [][]string
				rows = append(rows, []string{"policy", "run", "cycles"})
				for i, x := range r.RM.Times {
					rows = append(rows, []string{"RM", fmt.Sprint(i), fmt.Sprintf("%.0f", x)})
				}
				for i, x := range r.HRP.Times {
					rows = append(rows, []string{"hRP", fmt.Sprint(i), fmt.Sprintf("%.0f", x)})
				}
				if err := writeCSV(*csvDir, fmt.Sprintf("fig5_%dkb.csv", kb), rows); err != nil {
					return "", err
				}
			}
		}
		return b.String(), nil
	})
	run("avgperf", func() (string, error) {
		r, err := experiments.AveragePerformance(ctx, eng, scale)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("collision", func() (string, error) {
		r, err := experiments.CollisionAnalysis(2000)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("ablations", func() (string, error) {
		var b strings.Builder
		for _, f := range []func(context.Context, *core.Engine, experiments.Scale, string) (experiments.AblationResult, error){
			experiments.AblationReplacement,
			experiments.AblationL2Policy,
			experiments.AblationRMVariant,
		} {
			r, err := f(ctx, eng, scale, "tblook01")
			if err != nil {
				return "", err
			}
			b.WriteString(r.Render())
			b.WriteString("\n")
		}
		est, err := experiments.AblationEstimator(ctx, eng, scale)
		if err != nil {
			return "", err
		}
		b.WriteString(est.Render())
		return b.String(), nil
	})
	run("multicore", func() (string, error) {
		r, err := experiments.Multicore(ctx, eng, scale, "canrdr01")
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("convergence", func() (string, error) {
		r, err := experiments.ConvergenceStudy(ctx, eng, scale, "tblook01")
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	for _, sec := range []struct {
		name  string
		proto security.Protocol
	}{
		{"security-evict", security.EvictionSet},
		{"security-occupancy", security.Occupancy},
		{"security-primeprobe", security.PrimeProbe},
	} {
		sec := sec
		run(sec.name, func() (string, error) {
			r, err := experiments.SecuritySweep(ctx, eng, scale, sec.proto)
			if err != nil {
				return "", err
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, sec.name+".csv", securityCSV(r)); err != nil {
					return "", err
				}
			}
			return r.Render(), nil
		})
	}

	if recorder != nil {
		label := "default"
		if *full {
			label = "full"
		}
		if *short {
			label = "short"
		}
		if err := recorder.write(*jsonPath, label, eng.Workers()); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: writing -json report: %v\n", err)
			stopProfiles()
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "paperbench: wrote %s\n", *jsonPath)
	}
	if registry != nil {
		if err := writeMetrics(*metricsPath, registry, collector.Tracer()); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: writing -metrics dump: %v\n", err)
			stopProfiles()
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "paperbench: wrote %s\n", *metricsPath)
	}
}

// writeMetrics dumps the registry (every family, with histogram
// p50/p99/p999) and the retained trace spans as one JSON document.
func writeMetrics(path string, reg *obs.Registry, tracer *obs.Tracer) error {
	doc := struct {
		GeneratedAt time.Time           `json:"generated_at"`
		Metrics     *obs.Registry       `json:"metrics"`
		Traces      []obs.CampaignTrace `json:"traces"`
	}{GeneratedAt: time.Now().UTC(), Metrics: reg, Traces: tracer.Recent()}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// progressMeter renders a single overwritten status line from Engine
// events: campaigns in flight, runs completed, and the most recently
// progressed campaign. Event delivery is already serialized by the
// Engine, so no locking is needed beyond what clear() shares.
type progressMeter struct {
	w        *os.File
	active   int
	runsDone int
	last     time.Time
	width    int
}

func newProgressMeter(w *os.File) *progressMeter { return &progressMeter{w: w} }

func (m *progressMeter) observe(ev core.Event) {
	switch ev.Kind {
	case core.CampaignStarted:
		m.active++
	case core.CampaignFinished:
		m.active--
	case core.RunCompleted:
		m.runsDone++
		// Throttle terminal writes; the last event of a campaign always
		// lands via CampaignFinished -> clear at the driver boundary.
		if time.Since(m.last) < 100*time.Millisecond {
			return
		}
		m.last = time.Now()
		line := fmt.Sprintf("%s %d/%d runs | %d campaigns in flight | %d runs total",
			ev.Campaign, ev.Done, ev.Total, m.active, m.runsDone)
		if len(line) > m.width {
			m.width = len(line)
		}
		fmt.Fprintf(m.w, "\r%-*s", m.width, line)
	}
}

// clear erases the status line before normal output is printed.
func (m *progressMeter) clear() {
	if m.width > 0 {
		fmt.Fprintf(m.w, "\r%-*s\r", m.width, "")
		m.width = 0
	}
}

// startProfiles arms the -cpuprofile/-memprofile outputs and returns the
// idempotent stop function that flushes them; it runs both on normal exit
// (deferred) and right before error exits, so profiles survive failures.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuFile = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintf(os.Stderr, "paperbench: wrote CPU profile to %s\n", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the snapshot reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: -memprofile: %v\n", err)
				f.Close()
				return
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "paperbench: wrote heap profile to %s\n", memPath)
		}
	}, nil
}

func stderrIsTerminal() bool {
	st, err := os.Stderr.Stat()
	return err == nil && st.Mode()&os.ModeCharDevice != 0
}

func securityCSV(r experiments.SecurityResult) [][]string {
	rows := [][]string{{"placement", "replacement", "effort", "success", "accesses"}}
	for _, row := range r.Rows {
		for _, p := range row.Agg.Curve {
			rows = append(rows, []string{row.Placement, row.Replacement,
				fmt.Sprint(p.Effort), fmt.Sprintf("%.4f", p.Success),
				fmt.Sprintf("%.1f", p.Accesses)})
		}
	}
	return rows
}

func table2CSV(r experiments.Table2Result) [][]string {
	rows := [][]string{{"benchmark", "ww", "ks_p", "et_p", "pass"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Bench,
			fmt.Sprintf("%.3f", row.WW), fmt.Sprintf("%.3f", row.KSp),
			fmt.Sprintf("%.3f", row.ETp), fmt.Sprint(row.Pass)})
	}
	return rows
}

func writeCSV(dir, name string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644)
}
