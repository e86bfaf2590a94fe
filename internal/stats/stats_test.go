package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean = %f", Mean(xs))
	}
	if !almost(Variance(xs), 32.0/7, 1e-12) {
		t.Fatalf("variance = %f", Variance(xs))
	}
	if !almost(StdDev(xs), math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("stddev = %f", StdDev(xs))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate cases wrong")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatal("min/max wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Max(nil) did not panic")
		}
	}()
	Max(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("quantile(%f) = %f, want %f", c.p, got, c.want)
		}
	}
	if Quantile([]float64{42}, 0.9) != 42 {
		t.Error("single-element quantile wrong")
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad p did not panic")
		}
	}()
	Quantile([]float64{1, 2}, 1.5)
}

func TestQuickQuantileMonotone(t *testing.T) {
	g := prng.New(1)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = g.Float64() * 100
	}
	s := Sorted(xs)
	f := func(a, b uint16) bool {
		pa := float64(a) / 65535
		pb := float64(b) / 65535
		if pa > pb {
			pa, pb = pb, pa
		}
		return QuantileSorted(s, pa) <= QuantileSorted(s, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{3, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Values(); len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 2 || got[3] != 3 {
		t.Errorf("ECDF values = %v, want the sorted sample", got)
	}
	if _, err := NewECDF(nil); err == nil {
		t.Error("empty ECDF accepted")
	}
}

// TestQuickECDFMonotone: the ECDF steps at its sorted sample, so the
// step positions never decrease and keep every observation.
func TestQuickECDFMonotone(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		e, err := NewECDF(xs)
		if err != nil || len(e.Values()) != len(xs) {
			return false
		}
		v := e.Values()
		for i := 1; i < len(v); i++ {
			if v[i] < v[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h, err := NewHistogram(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 10 {
		t.Fatalf("histogram lost samples: %d", total)
	}
	if h.BinCenter(0) <= h.Lo || h.BinCenter(4) >= h.Hi+h.BinWidth {
		t.Fatal("bin centers out of range")
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h, err := NewHistogram([]float64{5, 5, 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Fatal("constant sample mishandled")
	}
	if _, err := NewHistogram(nil, 3); err == nil {
		t.Fatal("empty histogram accepted")
	}
	if _, err := NewHistogram([]float64{1}, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
}

func TestKolmogorovSurvival(t *testing.T) {
	// Known value: Q(1.36) ~= 0.049 (the classic 5% critical value).
	if got := KolmogorovSurvival(1.36); !almost(got, 0.049, 0.002) {
		t.Errorf("KolmogorovSurvival(1.36) = %f", got)
	}
	if KolmogorovSurvival(0) != 1 || KolmogorovSurvival(-1) != 1 {
		t.Error("non-positive lambda must give 1")
	}
	if got := KolmogorovSurvival(10); got > 1e-10 {
		t.Errorf("huge lambda survival = %g", got)
	}
	// Monotone decreasing.
	prev := 1.0
	for l := 0.1; l < 3; l += 0.1 {
		cur := KolmogorovSurvival(l)
		if cur > prev+1e-12 {
			t.Fatalf("KolmogorovSurvival not monotone at %f", l)
		}
		prev = cur
	}
}

// TestChiSquareUniformityOnPRNG: 12800 draws over 64 cells pass Pearson's
// chi-square uniformity test at the 1e-4 level (63 degrees of freedom:
// critical value 113.7 by the Wilson-Hilferty approximation).
func TestChiSquareUniformityOnPRNG(t *testing.T) {
	g := prng.New(123)
	counts := make([]int, 64)
	for i := 0; i < 64*200; i++ {
		counts[g.Intn(64)]++
	}
	chi := 0.0
	for _, c := range counts {
		d := float64(c) - 200
		chi += d * d / 200
	}
	if chi > 113.7 {
		t.Fatalf("PRNG uniformity rejected: chi2 = %.1f", chi)
	}
}
