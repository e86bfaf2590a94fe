package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestMulticoreContention(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	r, err := Multicore(context.Background(), NewEngine(tinyScale()), tinyScale(), "puwmod01")
	if err != nil {
		t.Fatal(err)
	}
	if r.ContendedMean <= r.SoloMean {
		t.Errorf("no bus interference: contended %.0f <= solo %.0f", r.ContendedMean, r.SoloMean)
	}
	if r.MeanSlowdown < 0 || r.MeanSlowdown > 3 {
		t.Errorf("implausible slowdown %.2f", r.MeanSlowdown)
	}
	out := r.Render()
	for _, want := range []string{"solo", "contended", "bus interference"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestMulticorePinned pins the contention study's floats bit for bit at
// tiny scale: the means, high-water marks, slowdown and both pWCETs are
// pure functions of the seeds, so any drift in the multicore replay or
// the bus model changes their bits.
func TestMulticorePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	r, err := Multicore(context.Background(), NewEngine(tinyScale()), tinyScale(), "puwmod01")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"SoloMean", r.SoloMean, 0x40ecd6599999999a},
		{"SoloHWM", r.SoloHWM, 0x40ece40000000000},
		{"ContendedMean", r.ContendedMean, 0x40ecfa099999999a},
		{"ContendedHWM", r.ContendedHWM, 0x40ed0ce000000000},
		{"MeanSlowdown", r.MeanSlowdown, 0x3f73ccfd5bfc9c00},
		{"SoloPWCET", r.SoloPWCET, 0x40ed1931d446fcd4},
		{"ContendedPWCET", r.ContendedPWCET, 0x40edcd287de66aa4},
	} {
		if bits := math.Float64bits(c.got); bits != c.want {
			t.Errorf("%s = %v (%#x), pinned %v (%#x)", c.name, c.got, bits, math.Float64frombits(c.want), c.want)
		}
	}
	if !r.IIDPassSolo || !r.IIDPassCont {
		t.Errorf("i.i.d. verdicts %v/%v, pinned true/true", r.IIDPassSolo, r.IIDPassCont)
	}
}

func TestConvergenceStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	r, err := ConvergenceStudy(context.Background(), NewEngine(tinyScale()), tinyScale(), "rspeed01")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 3 {
		t.Fatalf("only %d convergence points", len(r.Points))
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Runs <= r.Points[i-1].Runs {
			t.Fatal("run counts not increasing")
		}
	}
	if r.NeedRuns <= 0 {
		t.Fatal("no run requirement reported")
	}
	if !strings.Contains(r.Render(), "convergence protocol") {
		t.Error("render missing title")
	}
}

func TestEstimatorAblationSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	r, err := AblationEstimator(context.Background(), NewEngine(Scale{Runs: 80}), Scale{Runs: 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 11 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		// On reliable bounded-tail fits, GEV must be tighter than the
		// forced Gumbel; unreliable fits are flagged, not asserted (their
		// instability is the finding).
		if row.Reliable && row.Shape > 0.05 && row.GEV15 > row.Gumbel15*1.01 {
			t.Errorf("%s: bounded-tail GEV %.0f above Gumbel %.0f", row.Bench, row.GEV15, row.Gumbel15)
		}
		if row.HWM <= 0 {
			t.Errorf("%s: degenerate hwm", row.Bench)
		}
	}
	if !strings.Contains(r.Render(), "Estimator ablation") {
		t.Error("render missing title")
	}
}
