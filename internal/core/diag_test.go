package core

import (
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestDiagnosticSynthetic20KB prints the behavioural summary the paper's
// Figure 5 relies on: the execution-time distribution of the 20KB
// synthetic kernel under RM vs hRP. It asserts only the paper's
// qualitative claims; the log output is for calibration.
func TestDiagnosticSynthetic20KB(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic campaign skipped in -short mode")
	}
	w := workload.Synthetic(20*1024, 50, 4)
	const runs = 200

	runPolicy := func(kind placement.Kind) Result {
		start := time.Now()
		res, err := runWith(0, Request{
			Spec:       PaperPlatform(kind),
			Workload:   w,
			Runs:       runs,
			MasterSeed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		el := time.Since(start)
		t.Logf("%s: %d runs x %d accesses in %v (%.1f Maccess/s)",
			kind, runs, res.Trace.Accesses, el,
			float64(runs*res.Trace.Accesses)/el.Seconds()/1e6)
		t.Logf("%s: min=%.0f mean=%.0f max=%.0f sd=%.0f  IL1=%.4f DL1=%.4f L2=%.4f",
			kind, stats.Min(res.Times), res.Mean(), res.HWM(), stats.StdDev(res.Times),
			res.IL1Miss, res.DL1Miss, res.L2Miss)
		return res
	}

	rm := runPolicy(placement.RM)
	hrp := runPolicy(placement.HRP)

	// Paper Figure 5: RM shows much lower variability than hRP; the hRP
	// high-water mark sits clearly above RM's.
	if stats.StdDev(rm.Times) >= stats.StdDev(hrp.Times) {
		t.Errorf("RM stddev %.0f >= hRP stddev %.0f (paper: RM much tighter)",
			stats.StdDev(rm.Times), stats.StdDev(hrp.Times))
	}
	if rm.HWM() >= hrp.HWM() {
		t.Errorf("RM hwm %.0f >= hRP hwm %.0f", rm.HWM(), hrp.HWM())
	}

	rmA, err := Analyze(rm.Times)
	if err != nil {
		t.Fatal(err)
	}
	hrpA, err := Analyze(hrp.Times)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("RM : WW=%.2f KSp=%.2f ET=%.2f pWCET15=%.0f", rmA.WW.Stat, rmA.KS.P, rmA.ET.P, rmA.PWCET15)
	t.Logf("hRP: WW=%.2f KSp=%.2f ET=%.2f pWCET15=%.0f", hrpA.WW.Stat, hrpA.KS.P, hrpA.ET.P, hrpA.PWCET15)
	if rmA.PWCET15 >= hrpA.PWCET15 {
		t.Errorf("RM pWCET %.0f >= hRP pWCET %.0f (paper: RM far tighter)", rmA.PWCET15, hrpA.PWCET15)
	}
}

// TestDiagnosticAveragePerformance checks Section 4.4's average
// performance claim on one EEMBC-like kernel: RM within a few percent of
// deterministic modulo.
func TestDiagnosticAveragePerformance(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic campaign skipped in -short mode")
	}
	w, err := workload.ByName("a2time01")
	if err != nil {
		t.Fatal(err)
	}
	rm, err := runWith(0, Request{Spec: PaperPlatform(placement.RM), Workload: w, Runs: 50, MasterSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	det, err := runWith(0, Request{Spec: DeterministicPlatform(), Workload: w, Runs: 3, MasterSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	slowdown := rm.Mean()/det.Mean() - 1
	t.Logf("a2time01: RM mean %.0f, modulo mean %.0f, slowdown %.2f%%",
		rm.Mean(), det.Mean(), 100*slowdown)
	if slowdown > 0.25 {
		t.Errorf("RM slowdown vs modulo is %.1f%%, paper reports ~1.6%% avg / 8%% max", 100*slowdown)
	}
}
