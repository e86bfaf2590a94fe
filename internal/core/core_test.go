package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/iid"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/stats"
	"repro/internal/workload"
)

// runWith runs one campaign on a private engine with the given pool size
// (non-positive selects GOMAXPROCS).
func runWith(workers int, req Request) (Result, error) {
	return NewEngine(WithWorkers(workers)).Run(context.Background(), req)
}

func TestPaperPlatformShape(t *testing.T) {
	s := PaperPlatform(placement.RM)
	if s.L1SizeBytes != 16*1024 || s.L1Ways != 4 || s.LineBytes != 32 {
		t.Fatalf("L1 geometry wrong: %+v", s)
	}
	if s.L2SizeBytes != 128*1024 {
		t.Fatalf("L2 partition = %d", s.L2SizeBytes)
	}
	if s.IL1.Placement != placement.RM || s.DL1.Placement != placement.RM {
		t.Fatal("L1 placement not applied")
	}
	if s.L2.Placement != placement.HRP {
		t.Fatal("L2 must use hRP (paper Section 4.3)")
	}
	if s.IL1.Replacement != cache.Random {
		t.Fatal("randomized platform must use random replacement")
	}
	if _, err := s.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicPlatformShape(t *testing.T) {
	s := DeterministicPlatform()
	for _, cs := range []CacheSetup{s.IL1, s.DL1, s.L2} {
		if cs.Placement != placement.Modulo || cs.Replacement != cache.LRU {
			t.Fatalf("DET platform not modulo+LRU: %+v", cs)
		}
	}
}

func TestCampaignValidation(t *testing.T) {
	w, _ := workload.ByName("puwmod01")
	if _, err := runWith(0, Request{Spec: PaperPlatform(placement.RM), Workload: w}); err == nil {
		t.Fatal("zero runs accepted")
	}
	if _, err := runWith(0, Request{Spec: PaperPlatform(placement.RM), Runs: 5}); err == nil {
		t.Fatal("missing workload accepted")
	}
}

func TestCampaignReproducible(t *testing.T) {
	w, err := workload.ByName("puwmod01")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []float64 {
		res, err := runWith(0, Request{
			Spec: PaperPlatform(placement.RM), Workload: w,
			Runs: 20, MasterSeed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("campaign not reproducible at run %d", i)
		}
	}
}

func TestCampaignSeedsMatter(t *testing.T) {
	w, err := workload.ByName("tblook01")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWith(0, Request{
		Spec: PaperPlatform(placement.RM), Workload: w,
		Runs: 30, MasterSeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.StdDev(res.Times) == 0 {
		t.Fatal("randomized platform produced constant execution times")
	}
	if res.Trace.Accesses == 0 || res.Trace.Loads == 0 {
		t.Fatalf("trace accounting empty: %+v", res.Trace)
	}
}

func TestDeterministicCampaignIsConstant(t *testing.T) {
	// On the DET platform with a fixed layout, every run is identical:
	// this is precisely why industrial practice must vary the layout.
	w, err := workload.ByName("a2time01")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWith(0, Request{
		Spec: DeterministicPlatform(), Workload: w,
		Runs: 5, MasterSeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range res.Times {
		if x != res.Times[0] {
			t.Fatal("deterministic platform varied across identical runs")
		}
	}
}

func TestHWMCampaignVariesWithLayout(t *testing.T) {
	// ttsprk01 has several independently-placed KB-scale objects, so some
	// layouts stack more lines into a set than the cache has ways; smaller
	// kernels are legitimately layout-invariant (their Figure 4(b) rows
	// sit within 1% of the hwm in the paper too).
	w, err := workload.ByName("ttsprk01")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWith(0, Request{
		Spec: DeterministicPlatform(), Workload: w,
		Runs: 25, MasterSeed: 5, Baseline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.StdDev(res.Times) == 0 {
		t.Fatal("layout randomization produced no timing variation")
	}
	if res.HWM() < res.Mean() {
		t.Fatal("hwm below mean")
	}
	if _, err := runWith(0, Request{Spec: DeterministicPlatform(), Workload: w, Baseline: true}); err == nil {
		t.Fatal("zero runs accepted")
	}
}

func TestAnalyzePipelineOnCampaign(t *testing.T) {
	w, err := workload.ByName("rspeed01")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWith(0, Request{
		Spec: PaperPlatform(placement.RM), Workload: w,
		Runs: 300, MasterSeed: 11, Analyze: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	an := *res.Analysis
	if !an.IIDPass {
		t.Errorf("i.i.d. tests failed on an RM campaign: WW=%.2f KSp=%.3f", an.WW.Stat, an.KS.P)
	}
	hwm := res.HWM()
	if an.PWCET15 <= hwm {
		t.Errorf("pWCET@1e-15 (%.0f) not above hwm (%.0f)", an.PWCET15, hwm)
	}
	if an.PWCET12 >= an.PWCET15 {
		t.Error("pWCET@1e-12 not below pWCET@1e-15")
	}
	if an.Model.Runs != 300 {
		t.Errorf("model consumed %d runs", an.Model.Runs)
	}
}

// TestAnalyzeRejectsShortSamples runs Analyze and the buffered pipeline
// over vector lengths at the edges of the pipeline: empty, too short for
// the tests or for two block maxima, ragged final blocks, and either side
// of the iid.Window prefix. Both must agree bit for bit, or fail with the
// same error type and text.
func TestAnalyzeRejectsShortSamples(t *testing.T) {
	g := prng.New(0x5A3)
	long := make([]float64, iid.Window+1)
	for i := range long {
		long[i] = float64(1000 + g.Intn(64) + g.Intn(64))
	}
	for _, n := range []int{0, 1, 3, 39, 40, 41, 57, iid.Window, iid.Window + 1} {
		times := long[:n]
		got, err := Analyze(times)
		want, werr := bufferedAnalysis(times)
		if (err == nil) != (werr == nil) {
			t.Fatalf("n=%d: Analyze error %v, buffered pipeline %v", n, err, werr)
		}
		if err != nil {
			if err.Error() != werr.Error() || reflect.TypeOf(errors.Unwrap(err)) != reflect.TypeOf(errors.Unwrap(werr)) {
				t.Fatalf("n=%d: Analyze error %q (%T), buffered pipeline %q (%T)",
					n, err, errors.Unwrap(err), werr, errors.Unwrap(werr))
			}
			continue
		}
		if got != want {
			t.Fatalf("n=%d: Analyze %+v differs from buffered %+v", n, got, want)
		}
	}
	if _, err := Analyze([]float64{1, 2, 3}); err == nil {
		t.Fatal("short sample accepted")
	}
	if _, err := Analyze(nil); err == nil || err.Error() != "core: WW test: iid: too few samples" {
		t.Fatalf("empty sample: %v", err)
	}
}

func TestDitherPreservesScale(t *testing.T) {
	xs := []float64{1000, 2000, 2000, 3000}
	d := ditherTies(xs)
	for i := range xs {
		if diff := d[i] - xs[i]; diff < -0.5 || diff > 0.5 {
			t.Fatalf("dither amplitude %f out of bounds", diff)
		}
	}
	if d[1] == d[2] {
		t.Fatal("ties not broken")
	}
}

func TestRMvsModuloSingleSegment(t *testing.T) {
	// A one-segment workload on RM must never be slower than on modulo by
	// more than the replacement-policy noise: RM cannot introduce
	// within-segment conflicts (the paper's core guarantee at system
	// level).
	w := workload.Synthetic(4*1024, 20, 4) // exactly one L1 segment
	rm, err := runWith(0, Request{Spec: PaperPlatform(placement.RM), Workload: w, Runs: 30, MasterSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	det, err := runWith(0, Request{Spec: DeterministicPlatform(), Workload: w, Runs: 2, MasterSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rm.Mean() > det.Mean()*1.10 {
		t.Fatalf("RM single-segment mean %.0f vs modulo %.0f: conflict misses leaked in",
			rm.Mean(), det.Mean())
	}
}

func TestDerivedSeedsIndependentAcrossLevels(t *testing.T) {
	// The same run seed must produce different derived seeds per level
	// (otherwise IL1/DL1/L2 layouts would be correlated).
	a, b, c := prng.Derive(42, 1), prng.Derive(42, 2), prng.Derive(42, 3)
	if a == b || b == c || a == c {
		t.Fatal("per-level derived seeds collide")
	}
}
