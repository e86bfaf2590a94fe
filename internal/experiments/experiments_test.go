package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

// tinyScale keeps integration tests fast; statistical assertions are left
// to the bench harness at proper scale. Runs stays at 80 so that halved
// campaigns (ablations) still meet the statistical tests' sample floors.
func tinyScale() Scale {
	return Scale{Runs: 80, HWMLayouts: 8, SynthRuns: 80, Synth160Run: 10}
}

func TestScales(t *testing.T) {
	d, f := DefaultScale(), FullScale()
	if f.Runs != 1000 {
		t.Fatalf("full scale runs = %d, paper uses 1000", f.Runs)
	}
	if d.Runs >= f.Runs {
		t.Fatal("default scale not smaller than full scale")
	}
	t.Setenv("REPRO_FULL", "1")
	if FromEnv().Runs != f.Runs {
		t.Fatal("REPRO_FULL=1 did not select full scale")
	}
	t.Setenv("REPRO_FULL", "")
	if FromEnv().Runs != d.Runs {
		t.Fatal("default env did not select default scale")
	}
}

func TestInitials(t *testing.T) {
	cases := map[string]string{
		"a2time01": "A2", "cacheb01": "CB", "canrdr01": "CN",
		"tblook01": "TB", "ttsprk01": "TT", "unknown": "UN",
		// Regression: names shorter than two characters used to panic on
		// the name[:2] fallback.
		"x": "X", "": "",
	}
	for name, want := range cases {
		if got := Initials(name); got != want {
			t.Errorf("Initials(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestWorkersFromEnv(t *testing.T) {
	t.Setenv("REPRO_WORKERS", "3")
	if got := WorkersFromEnv(); got != 3 {
		t.Errorf("WorkersFromEnv() = %d, want 3", got)
	}
	t.Setenv("REPRO_WORKERS", "garbage")
	if got := WorkersFromEnv(); got != 0 {
		t.Errorf("WorkersFromEnv() on garbage = %d, want 0 (GOMAXPROCS default)", got)
	}
	t.Setenv("REPRO_WORKERS", "-4")
	if got := WorkersFromEnv(); got != 0 {
		t.Errorf("WorkersFromEnv() on negative = %d, want 0", got)
	}
}

// TestDriversDeterministicAcrossWorkers pins the tentpole property at the
// driver level: a full experiment renders identically for any pool size.
func TestDriversDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	s := tinyScale()
	render := func(workers int) string {
		r, err := Figure5(context.Background(), core.NewEngine(core.WithWorkers(workers)), s, 8)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return r.Render()
	}
	seq, par := render(1), render(4)
	if seq != par {
		t.Errorf("Figure5 renders differ between 1 and 4 workers:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, par)
	}
}

func TestTable1Relations(t *testing.T) {
	r := Table1()
	if r.ASIC.AreaRatio < 5 {
		t.Errorf("area ratio %.1f below the ~10x regime", r.ASIC.AreaRatio)
	}
	if r.FPGA.RM.FMHz != 100 || r.FPGA.HRP.FMHz >= 100 {
		t.Errorf("FPGA frequencies RM=%d hRP=%d", r.FPGA.RM.FMHz, r.FPGA.HRP.FMHz)
	}
	out := r.Render()
	for _, want := range []string{"Table 1", "ASIC area", "FPGA occupancy", "paper:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 render missing %q", want)
		}
	}
}

func TestTable2SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	r, err := Table2(context.Background(), core.NewEngine(), tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 11 {
		t.Fatalf("Table 2 has %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.WW < 0 || row.KSp < 0 || row.KSp > 1 {
			t.Errorf("%s: implausible stats %+v", row.Bench, row)
		}
	}
	if !strings.Contains(r.Render(), "A2") {
		t.Error("render missing benchmark initials")
	}
}

func TestFigure5SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	r, err := Figure5(context.Background(), core.NewEngine(), tinyScale(), 20)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's core claim at any scale: RM is tighter than hRP.
	if r.RM.StdDev >= r.HRP.StdDev {
		t.Errorf("RM sd %.0f >= hRP sd %.0f", r.RM.StdDev, r.HRP.StdDev)
	}
	if r.RM.PWCET15 >= r.HRP.PWCET15 {
		t.Errorf("RM pWCET %.0f >= hRP pWCET %.0f", r.RM.PWCET15, r.HRP.PWCET15)
	}
	if len(r.RM.Curve) == 0 || len(r.HRP.Curve) != len(r.RM.Curve) {
		t.Fatal("curves malformed")
	}
	if !strings.Contains(r.Render(), "pWCET@1e-15") {
		t.Error("render missing pWCET summary")
	}
}

func TestCollisionAnalysisGuarantee(t *testing.T) {
	r, err := CollisionAnalysis(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	sawHRPOverload := false
	for _, row := range r.Rows {
		// RM and RM-rot cannot overload while the footprint fits the cache
		// (Section 3.2 guarantee).
		if row.Lines <= 512 && (row.RMProb != 0 || row.RotProb != 0) {
			t.Errorf("%d lines: RM=%f RM-rot=%f, want 0", row.Lines, row.RMProb, row.RotProb)
		}
		if row.Lines >= 128 && row.HRPProb > 0 {
			sawHRPOverload = true
		}
	}
	if !sawHRPOverload {
		t.Error("hRP never overloaded a set (paper 3.1: non-negligible probability)")
	}
}

func TestFigure1Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	r, err := Figure1(context.Background(), core.NewEngine(), tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curve) < 10 {
		t.Fatalf("curve has %d points", len(r.Curve))
	}
	if r.PWCET <= 0 {
		t.Fatal("no pWCET estimate")
	}
	if !strings.Contains(r.Render(), "pWCET curve") {
		t.Error("render missing title")
	}
}

func TestAblationRMVariantSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	r, err := AblationRMVariant(context.Background(), core.NewEngine(), tinyScale(), "puwmod01")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Mean <= 0 || row.PWCET15 <= 0 {
			t.Errorf("degenerate row %+v", row)
		}
	}
}
