package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/evt"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/workload"
)

// --- Section 3.1 analysis: within-segment collision probability ----------

// CollisionRow reports, for a contiguous footprint of Lines cache lines,
// the per-seed probability that some cache set receives more lines than
// the cache has ways (the precondition for a conflict storm).
type CollisionRow struct {
	Lines   int
	HRPProb float64
	RMProb  float64 // zero while the footprint fits, by construction
	RotProb float64 // rotation-only ablation (also zero within capacity)
}

// CollisionResult reproduces the Section 3.1 analysis: "even when a
// program uses few contiguous cache lines, those lines can be (randomly)
// mapped to the same cache set with a non-negligible probability" under
// hRP, while RM keeps same-segment lines apart by construction.
type CollisionResult struct {
	Sets, Ways int
	Seeds      int
	Rows       []CollisionRow
}

// CollisionAnalysis sweeps contiguous footprints on the paper's L1
// geometry (128 sets, 4 ways) and measures overload probability per seed.
func CollisionAnalysis(seeds int) (CollisionResult, error) {
	const sets, ways = 128, 4
	res := CollisionResult{Sets: sets, Ways: ways, Seeds: seeds}
	pols := make(map[string]placement.Policy)
	for _, k := range []placement.Kind{placement.HRP, placement.RM, placement.RMRot} {
		p, err := placement.New(k, sets)
		if err != nil {
			return res, err
		}
		pols[k.String()] = p
	}
	counts := make([]int, sets)
	overloaded := func(p placement.Policy, lines, seed int) bool {
		p.Reseed(prng.Derive(0xC0111, seed*1000+lines))
		for i := range counts {
			counts[i] = 0
		}
		for l := 0; l < lines; l++ {
			counts[p.Index(uint64(l))]++
		}
		for _, c := range counts {
			if c > ways {
				return true
			}
		}
		return false
	}
	for _, lines := range []int{16, 32, 64, 128, 256, 512} {
		row := CollisionRow{Lines: lines}
		for s := 0; s < seeds; s++ {
			if overloaded(pols["hRP"], lines, s) {
				row.HRPProb++
			}
			if overloaded(pols["RM"], lines, s) {
				row.RMProb++
			}
			if overloaded(pols["RM-rot"], lines, s) {
				row.RotProb++
			}
		}
		row.HRPProb /= float64(seeds)
		row.RMProb /= float64(seeds)
		row.RotProb /= float64(seeds)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the sweep.
func (r CollisionResult) Render() string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Section 3.1: P(some set overloaded) for contiguous lines (%d sets, %d ways, %d seeds)",
		r.Sets, r.Ways, r.Seeds),
		"lines    footprint     hRP        RM     RM-rot")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%5d %9dB   %7.4f  %7.4f  %7.4f\n",
			row.Lines, row.Lines*32, row.HRPProb, row.RMProb, row.RotProb)
	}
	b.WriteString("(RM cannot overload a set while the footprint fits in the cache: Section 3.2 guarantee)\n")
	return b.String()
}

// --- Ablations of the paper's design choices --------------------------------

// AblationRow is one design point of an ablation sweep.
type AblationRow struct {
	Design  string
	Mean    float64
	HWM     float64
	PWCET15 float64
	IIDPass bool
}

// AblationResult is a labelled set of design points on one workload.
type AblationResult struct {
	Workload string
	Rows     []AblationRow
}

// Render formats an ablation table.
func (r AblationResult) Render() string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Ablation on %s", r.Workload),
		"design                          mean          hwm      pWCET@1e-15  iid")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-26s %12.0f %12.0f %12.0f   %v\n",
			row.Design, row.Mean, row.HWM, row.PWCET15, row.IIDPass)
	}
	return b.String()
}

func ablationPoint(ctx context.Context, eng *core.Engine, design string, spec core.PlatformSpec, w workload.Workload, runs int) (AblationRow, error) {
	res, err := eng.Run(ctx, core.Request{
		Name: "ablation/" + design,
		Spec: spec, Workload: w, Runs: runs, MasterSeed: MasterSeed, Analyze: true,
	})
	if err != nil {
		return AblationRow{}, fmt.Errorf("ablation %s: %w", design, err)
	}
	return AblationRow{
		Design: design, Mean: res.Mean(), HWM: res.HWM(),
		PWCET15: res.Analysis.PWCET15, IIDPass: res.Analysis.IIDPass,
	}, nil
}

// AblationReplacement quantifies the cost of MBPTA-required random
// replacement against LRU under RM placement.
func AblationReplacement(ctx context.Context, eng *core.Engine, s Scale, benchName string) (AblationResult, error) {
	w, err := workload.ByName(benchName)
	if err != nil {
		return AblationResult{}, err
	}
	res := AblationResult{Workload: benchName}
	for _, repl := range []cache.ReplacementKind{cache.Random, cache.LRU, cache.FIFO, cache.PLRU} {
		spec := core.PaperPlatform(placement.RM)
		spec.IL1.Replacement = repl
		spec.DL1.Replacement = repl
		row, err := ablationPoint(ctx, eng, fmt.Sprintf("RM + %v L1 replacement", repl), spec, w, s.Runs/2)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationL2Policy sweeps the L2 placement while the L1s stay RM,
// including the paper's caveated RM-at-L2 option (Section 3.2
// "Applicability": RM at L2 requires page-alignment guarantees from the
// RTOS; hRP is the safe default).
func AblationL2Policy(ctx context.Context, eng *core.Engine, s Scale, benchName string) (AblationResult, error) {
	w, err := workload.ByName(benchName)
	if err != nil {
		return AblationResult{}, err
	}
	res := AblationResult{Workload: benchName}
	for _, l2 := range []placement.Kind{placement.HRP, placement.RM, placement.Modulo, placement.XORFold} {
		spec := core.PaperPlatform(placement.RM)
		spec.L2.Placement = l2
		if l2 == placement.Modulo || l2 == placement.XORFold {
			spec.L2.Replacement = cache.LRU
		}
		row, err := ablationPoint(ctx, eng, fmt.Sprintf("RM L1 + %v L2", l2), spec, w, s.Runs/2)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// EstimatorRow compares pWCET estimators on one benchmark's RM campaign.
type EstimatorRow struct {
	Bench    string
	HWM      float64
	Gumbel15 float64 // paper's estimator (forced Gumbel), pWCET@1e-15
	GEV15    float64 // full GEV fit (shape free), pWCET@1e-15
	Shape    float64 // fitted GEV shape (positive = bounded tail)
	Reliable bool    // enough maxima and moderate shape for the GEV fit
}

// EstimatorResult quantifies how much of the pWCET-above-hwm margin is
// estimator conservatism: the paper's method forces a Gumbel (shape-zero)
// model, which upper-bounds light/bounded tails loosely; the GEV fit with
// free shape shows the tighter defensible bound. (Extension experiment;
// see EXPERIMENTS.md, Figure 4(b) discussion.)
type EstimatorResult struct {
	Rows []EstimatorRow
}

// AblationEstimator runs RM campaigns over the EEMBC-like suite and
// compares Gumbel vs GEV pWCET estimates at 1e-15.
func AblationEstimator(ctx context.Context, eng *core.Engine, s Scale) (EstimatorResult, error) {
	var res EstimatorResult
	for _, w := range workload.EEMBC() {
		c, err := eng.Run(ctx, core.Request{
			Name: "estimator/" + w.Name,
			Spec: core.PaperPlatform(placement.RM), Workload: w,
			Runs: s.Runs, MasterSeed: MasterSeed,
		})
		if err != nil {
			return res, err
		}
		gum, err := evt.Analyze(c.Times, 0)
		if err != nil {
			return res, err
		}
		gev, err := evt.AnalyzeGEV(c.Times, 0)
		if err != nil {
			return res, err
		}
		maxima := gev.Runs / gev.Block
		res.Rows = append(res.Rows, EstimatorRow{
			Bench:    w.Name,
			HWM:      c.HWM(),
			Gumbel15: gum.AtExceedance(core.CutoffHigh),
			GEV15:    gev.AtExceedance(core.CutoffHigh),
			Shape:    gev.Fit.K,
			// A free-shape fit on few maxima is unstable -- negative shape
			// noise explodes the 1e-15 quantile. This instability is the
			// reason the paper's method forces the Gumbel model; the flag
			// makes it visible instead of hiding it.
			Reliable: maxima >= 30 && gev.Fit.K > -0.25 && gev.Fit.K < 0.75,
		})
	}
	return res, nil
}

// Render formats the estimator comparison.
func (r EstimatorResult) Render() string {
	var b strings.Builder
	header(&b, "Estimator ablation: Gumbel (paper) vs free-shape GEV, pWCET@1e-15 under RM",
		"benchmark         hwm   Gumbel@1e-15      GEV@1e-15   GEV/hwm  shape")
	for _, row := range r.Rows {
		note := ""
		if !row.Reliable {
			note = "  (GEV fit unstable: too few maxima or extreme shape)"
		}
		fmt.Fprintf(&b, "%-10s %10.0f   %12.0f   %12.0f   %7.3f  %+5.2f%s\n",
			row.Bench, row.HWM, row.Gumbel15, row.GEV15, row.GEV15/row.HWM, row.Shape, note)
	}
	b.WriteString("(positive shape = bounded tail, which the forced Gumbel over-extrapolates;\n")
	b.WriteString(" unstable free-shape fits on few maxima are why MBPTA forces the Gumbel model)\n")
	return b.String()
}

// AblationRMVariant compares full Benes-permutation RM against the
// rotation-only variant and hRP on one benchmark: layout diversity versus
// hardware cost.
func AblationRMVariant(ctx context.Context, eng *core.Engine, s Scale, benchName string) (AblationResult, error) {
	w, err := workload.ByName(benchName)
	if err != nil {
		return AblationResult{}, err
	}
	res := AblationResult{Workload: benchName}
	for _, l1 := range []placement.Kind{placement.RM, placement.RMRot, placement.HRP} {
		row, err := ablationPoint(ctx, eng, fmt.Sprintf("%v L1 placement", l1), core.PaperPlatform(l1), w, s.Runs/2)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
