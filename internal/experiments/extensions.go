package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/evt"
	"repro/internal/placement"
	"repro/internal/workload"
)

// --- Multicore contention study (extension) -------------------------------
//
// The paper's platform is a 4-core LEON3 with per-core L2 partitions; its
// evaluation runs benchmarks in isolation. This extension exercises the
// multicore arrangement the paper's Section 2 cites (shared bus,
// partitioned storage): the subject benchmark runs against memory-hungry
// co-runners and its execution-time distribution under RM remains
// analyzable, just shifted by the bounded bus interference.

// MulticoreResult reports the contention study.
type MulticoreResult struct {
	Subject        string
	SoloMean       float64
	SoloHWM        float64
	ContendedMean  float64
	ContendedHWM   float64
	MeanSlowdown   float64 // contended/solo - 1
	SoloPWCET      float64
	ContendedPWCET float64
	IIDPassSolo    bool
	IIDPassCont    bool
}

// Multicore runs the subject benchmark solo and against three streaming
// co-runners on the 4-core shared-bus platform, with RM L1 caches: two
// analyzed Engine campaigns of the same runs-many hardware seeds in one
// batch, solo (three idle cores) and contended (three hogs, see
// core.Request.CoRunners).
func Multicore(ctx context.Context, eng *core.Engine, s Scale, subjectName string) (MulticoreResult, error) {
	res := MulticoreResult{Subject: subjectName}
	subject, err := workload.ByName(subjectName)
	if err != nil {
		return res, err
	}
	hog := workload.Synthetic(160*1024, 4, 4)
	req := func(config string, co workload.Workload) core.Request {
		return core.Request{
			Name: "multicore/" + config + "/" + subjectName,
			Spec: core.PaperPlatform(placement.RM), Workload: subject,
			CoRunners: []workload.Workload{co, co, co},
			Runs:      max(s.Runs/4, 40), MasterSeed: MasterSeed, Analyze: true,
		}
	}
	rs, err := eng.RunBatch(ctx, []core.Request{req("solo", workload.Workload{}), req("contended", hog)})
	if err != nil {
		return res, err
	}
	solo, cont := rs[0], rs[1]
	res.SoloMean, res.SoloHWM = solo.Mean(), solo.HWM()
	res.ContendedMean, res.ContendedHWM = cont.Mean(), cont.HWM()
	res.MeanSlowdown = res.ContendedMean/res.SoloMean - 1
	res.SoloPWCET, res.IIDPassSolo = solo.Analysis.PWCET15, solo.Analysis.IIDPass
	res.ContendedPWCET, res.IIDPassCont = cont.Analysis.PWCET15, cont.Analysis.IIDPass
	return res, nil
}

// Render formats the contention study.
func (r MulticoreResult) Render() string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Multicore contention study (extension): %s vs 3 streaming co-runners", r.Subject),
		"configuration        mean          hwm      pWCET@1e-15   iid")
	fmt.Fprintf(&b, "solo        %13.0f %12.0f %12.0f   %v\n",
		r.SoloMean, r.SoloHWM, r.SoloPWCET, r.IIDPassSolo)
	fmt.Fprintf(&b, "contended   %13.0f %12.0f %12.0f   %v\n",
		r.ContendedMean, r.ContendedHWM, r.ContendedPWCET, r.IIDPassCont)
	fmt.Fprintf(&b, "bus interference: +%.1f%% mean slowdown (storage isolated by the L2 partition)\n",
		100*r.MeanSlowdown)
	return b.String()
}

// --- MBPTA convergence protocol (Section 2) -------------------------------

// ConvergencePoint is one step of the convergence study.
type ConvergencePoint struct {
	Runs     int
	Estimate float64 // pWCET@1e-15 with this many runs
	Delta    float64 // relative change vs the previous step
}

// ConvergenceResult reproduces the MBPTA protocol of Section 2: collect
// measurements until the pWCET estimate stabilizes ("MBPTA dictates the
// number of runs").
type ConvergenceResult struct {
	Bench     string
	Points    []ConvergencePoint
	Converged bool
	NeedRuns  int
}

// ConvergenceStudy grows the campaign in steps and tracks the pWCET
// estimate until it stabilizes within 2%.
func ConvergenceStudy(ctx context.Context, eng *core.Engine, s Scale, benchName string) (ConvergenceResult, error) {
	res := ConvergenceResult{Bench: benchName}
	w, err := workload.ByName(benchName)
	if err != nil {
		return res, err
	}
	total := s.Runs * 2
	c, err := eng.Run(ctx, core.Request{
		Name: "convergence/" + benchName,
		Spec: core.PaperPlatform(placement.RM), Workload: w,
		Runs: total, MasterSeed: MasterSeed,
	})
	if err != nil {
		return res, err
	}
	step := total / 8
	if step < evt.DefaultBlock*2 {
		step = evt.DefaultBlock * 2
	}
	var prev float64
	for n := step; n <= total; n += step {
		model, err := evt.Analyze(c.Times[:n], 0)
		if err != nil {
			return res, err
		}
		pt := ConvergencePoint{Runs: n, Estimate: model.AtExceedance(core.CutoffHigh)}
		if prev > 0 {
			pt.Delta = abs(pt.Estimate-prev) / prev
			if pt.Delta < 0.02 && !res.Converged {
				res.Converged = true
				res.NeedRuns = n
			}
		}
		prev = pt.Estimate
		res.Points = append(res.Points, pt)
	}
	if !res.Converged {
		res.NeedRuns = total
	}
	return res, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Render formats the convergence study.
func (r ConvergenceResult) Render() string {
	var b strings.Builder
	header(&b, fmt.Sprintf("MBPTA convergence protocol on %s (RM)", r.Bench),
		"runs       pWCET@1e-15     step delta")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%5d   %14.0f      %8.4f\n", pt.Runs, pt.Estimate, pt.Delta)
	}
	fmt.Fprintf(&b, "converged: %v (analysis would request %d runs)\n", r.Converged, r.NeedRuns)
	return b.String()
}
