// Benchmark harness: one benchmark per table/figure of the paper (the
// experiment index is cmd/paperbench's -exp list). Each benchmark
// executes the corresponding experiment end-to-end at a reduced scale
// chosen so a single iteration completes in seconds; set REPRO_FULL=1 to
// use the paper's campaign sizes. The rendered tables are emitted via
// b.Log on the first iteration, so `go test -bench=. -v` doubles as a
// results regeneration run.
package randmod

import (
	"context"
	"os"
	"testing"

	"repro/internal/experiments"
)

// benchScale returns the campaign scale for benchmark iterations. The
// engine pool defaults to GOMAXPROCS (REPRO_WORKERS overrides it);
// campaign results are bit-identical for any pool size, so the rendered
// tables do not depend on the host's core count.
func benchScale() experiments.Scale {
	if os.Getenv("REPRO_FULL") == "1" {
		return experiments.FullScale()
	}
	return experiments.Scale{Runs: 120, HWMLayouts: 20, SynthRuns: 120, Synth160Run: 40}
}

// benchEngine builds the shared engine every benchmark drives its
// campaigns through.
func benchEngine() (context.Context, *Engine) {
	return context.Background(), NewEngine(WithWorkers(experiments.WorkersFromEnv()))
}

// BenchmarkTable1_HardwareCost regenerates Table 1: ASIC area/delay of the
// RM and hRP modules and the FPGA integration occupancy/frequency.
func BenchmarkTable1_HardwareCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1()
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkTable2_IIDTests regenerates Table 2: Wald-Wolfowitz and KS (and
// ET) statistics for the EEMBC-like suite under RM caches.
func BenchmarkTable2_IIDTests(b *testing.B) {
	s := benchScale()
	ctx, eng := benchEngine()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(ctx, eng, s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkFigure1_PWCETCurve regenerates the illustrative pWCET curve of
// Figure 1 (CCDF in log scale with the 1e-15 cutoff).
func BenchmarkFigure1_PWCETCurve(b *testing.B) {
	s := benchScale()
	ctx, eng := benchEngine()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1(ctx, eng, s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkFigure4a_RMvsHRP regenerates Figure 4(a): RM pWCET normalized
// to hRP across the EEMBC-like suite (paper: 25-62% tighter, avg 43%).
func BenchmarkFigure4a_RMvsHRP(b *testing.B) {
	s := benchScale()
	ctx, eng := benchEngine()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure4a(ctx, eng, s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
		if r.MeanRatio >= 1 {
			b.Fatalf("RM not tighter than hRP on average: ratio %.2f", r.MeanRatio)
		}
	}
}

// BenchmarkFigure4b_RMvsDET regenerates Figure 4(b): RM pWCET against the
// deterministic high-water mark (paper: within 7%).
func BenchmarkFigure4b_RMvsDET(b *testing.B) {
	s := benchScale()
	ctx, eng := benchEngine()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure4b(ctx, eng, s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkFigure5ab_SyntheticPDF regenerates Figure 5(a,b): the
// execution-time distributions of the 20KB synthetic kernel under RM and
// hRP (RM compact, hRP heavy-tailed).
func BenchmarkFigure5ab_SyntheticPDF(b *testing.B) {
	s := benchScale()
	ctx, eng := benchEngine()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5(ctx, eng, s, 20)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
		if r.RM.StdDev >= r.HRP.StdDev {
			b.Fatalf("RM sd %.0f >= hRP sd %.0f", r.RM.StdDev, r.HRP.StdDev)
		}
	}
}

// BenchmarkFigure5c_SyntheticPWCET regenerates Figure 5(c) across all
// three paper footprints (8KB fits L1, 20KB fits L2, 160KB exceeds the L2
// partition), checking the pWCET ordering at each point.
func BenchmarkFigure5c_SyntheticPWCET(b *testing.B) {
	s := benchScale()
	ctx, eng := benchEngine()
	for i := 0; i < b.N; i++ {
		for _, kb := range []int{8, 20, 160} {
			r, err := experiments.Figure5(ctx, eng, s, kb)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Log("\n" + r.Render())
			}
			ratio := r.RM.PWCET15 / r.HRP.PWCET15
			if kb < 160 && ratio >= 1 {
				b.Fatalf("%dKB: RM pWCET %.0f >= hRP pWCET %.0f", kb, r.RM.PWCET15, r.HRP.PWCET15)
			}
			// At 160KB the footprint exceeds the L2 partition and the L2
			// (hRP in both setups, as in the paper) dominates: the two
			// configurations wash out to the same distribution.
			if kb == 160 && (ratio < 0.85 || ratio > 1.15) {
				b.Fatalf("160KB: RM/hRP = %.2f, expected ~1 (L2-dominated)", ratio)
			}
		}
	}
}

// BenchmarkSection44_AveragePerformance regenerates the Section 4.4
// average-performance comparison (paper: RM ~1.6% slower than modulo on
// average, max 8%).
func BenchmarkSection44_AveragePerformance(b *testing.B) {
	s := benchScale()
	ctx, eng := benchEngine()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AveragePerformance(ctx, eng, s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
		if r.MeanSlowdown > 0.10 {
			b.Fatalf("RM average slowdown %.1f%% far above the paper's ~1.6%%", 100*r.MeanSlowdown)
		}
	}
}

// BenchmarkSection31_CollisionAnalysis regenerates the Section 3.1
// analysis: within-segment overload probability under hRP vs RM.
func BenchmarkSection31_CollisionAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.CollisionAnalysis(500)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
		for _, row := range r.Rows {
			if row.Lines <= 512 && row.RMProb != 0 {
				b.Fatalf("RM overloaded a set with %d contiguous lines", row.Lines)
			}
		}
	}
}

// BenchmarkAblationReplacement compares L1 replacement policies under RM
// placement (random is MBPTA's requirement; LRU/FIFO/PLRU are the
// deterministic alternatives).
func BenchmarkAblationReplacement(b *testing.B) {
	s := benchScale()
	ctx, eng := benchEngine()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationReplacement(ctx, eng, s, "tblook01")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkAblationL2Policy sweeps the L2 placement under RM L1s,
// including the paper's caveated RM-at-L2 configuration.
func BenchmarkAblationL2Policy(b *testing.B) {
	s := benchScale()
	ctx, eng := benchEngine()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationL2Policy(ctx, eng, s, "tblook01")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkAblationRMVariant compares full Benes RM against the
// rotation-only variant and hRP (layout diversity vs hardware cost).
func BenchmarkAblationRMVariant(b *testing.B) {
	s := benchScale()
	ctx, eng := benchEngine()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationRMVariant(ctx, eng, s, "tblook01")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkMulticoreContention runs the 4-core shared-bus extension: the
// subject benchmark against three streaming co-runners, with per-core L2
// partitions isolating storage (Section 2's multicore arrangement).
func BenchmarkMulticoreContention(b *testing.B) {
	s := benchScale()
	ctx, eng := benchEngine()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Multicore(ctx, eng, s, "canrdr01")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
		if r.ContendedMean <= r.SoloMean {
			b.Fatal("no bus interference measured")
		}
	}
}

// BenchmarkConvergenceProtocol runs the MBPTA number-of-runs protocol:
// the pWCET estimate as a function of campaign size (Section 2).
func BenchmarkConvergenceProtocol(b *testing.B) {
	s := benchScale()
	ctx, eng := benchEngine()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ConvergenceStudy(ctx, eng, s, "tblook01")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkAblationEstimator compares the paper's forced-Gumbel pWCET
// estimator against a free-shape GEV fit, quantifying the estimator
// conservatism behind the Figure 4(b) margins.
func BenchmarkAblationEstimator(b *testing.B) {
	s := benchScale()
	ctx, eng := benchEngine()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationEstimator(ctx, eng, s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
		for _, row := range r.Rows {
			if row.Reliable && row.Shape > 0.05 && row.GEV15 > row.Gumbel15*1.01 {
				b.Fatalf("%s: bounded-tail GEV estimate %.0f above Gumbel %.0f",
					row.Bench, row.GEV15, row.Gumbel15)
			}
		}
	}
}
