package evt

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestGumbelCDFQuantileRoundTrip(t *testing.T) {
	g := Gumbel{Mu: 100, Beta: 7}
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.999} {
		x := g.Quantile(p)
		if !almost(g.CDF(x), p, 1e-12) {
			t.Errorf("CDF(Quantile(%f)) = %g", p, g.CDF(x))
		}
	}
	if !math.IsNaN(g.Quantile(0)) || !math.IsNaN(g.Quantile(1)) {
		t.Error("boundary quantiles must be NaN")
	}
}

func TestGumbelSurvivalDeepTail(t *testing.T) {
	g := Gumbel{Mu: 1000, Beta: 50}
	for _, q := range []float64{1e-3, 1e-9, 1e-15} {
		x := g.QuantileSurvival(q)
		got := -math.Expm1(-math.Exp(-(x - g.Mu) / g.Beta)) // P(X > x), stable in the tail
		if got <= 0 {
			t.Fatalf("survival underflowed at q=%g", q)
		}
		if math.Abs(math.Log(got)-math.Log(q)) > 1e-6 {
			t.Errorf("QuantileSurvival(%g): survival=%g", q, got)
		}
	}
	// Deep-tail quantiles must increase as q decreases.
	if g.QuantileSurvival(1e-15) <= g.QuantileSurvival(1e-12) {
		t.Error("deep-tail quantiles not monotone")
	}
}

func TestGumbelMeanAndSampling(t *testing.T) {
	g := Gumbel{Mu: 10, Beta: 3}
	rng := prng.New(1)
	const n = 60000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Sample(rng)
	}
	if mean := g.Mu + EulerGamma*g.Beta; !almost(sum/n, mean, 0.1) {
		t.Fatalf("sample mean %f, want %f", sum/n, mean)
	}
}

func TestFitPWMRecoversParameters(t *testing.T) {
	truth := Gumbel{Mu: 500, Beta: 25}
	rng := prng.New(7)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = truth.Sample(rng)
	}
	fit, err := FitPWM(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Mu, truth.Mu, 3) || !almost(fit.Beta, truth.Beta, 2) {
		t.Fatalf("PWM fit = %+v, truth %+v", fit, truth)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitPWM([]float64{1, 2}); err == nil {
		t.Fatal("tiny sample accepted")
	}
	constant := make([]float64, 100)
	for i := range constant {
		constant[i] = 5
	}
	if _, err := FitPWM(constant); err == nil {
		t.Fatal("constant sample accepted (beta would be 0)")
	}
}

func TestBlockMaxima(t *testing.T) {
	xs := []float64{1, 5, 2, 9, 3, 4, 8, 7, 6} // blocks of 3: 5, 9, 8
	m, err := BlockMaxima(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 9, 8}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("maxima = %v", m)
		}
	}
	// Trailing partial block dropped.
	m, _ = BlockMaxima([]float64{1, 2, 3, 4, 5, 6, 7}, 3)
	if len(m) != 2 {
		t.Fatalf("partial block not dropped: %v", m)
	}
	if _, err := BlockMaxima(xs, 0); err == nil {
		t.Fatal("block 0 accepted")
	}
	if _, err := BlockMaxima([]float64{1, 2}, 2); err == nil {
		t.Fatal("single block accepted")
	}
}

func TestQuickBlockMaximaDominate(t *testing.T) {
	// Property: every block maximum is >= every element of its block.
	f := func(seed uint64) bool {
		g := prng.New(seed)
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = g.Float64()
		}
		m, err := BlockMaxima(xs, 10)
		if err != nil {
			return false
		}
		for b := 0; b < len(m); b++ {
			for i := b * 10; i < (b+1)*10; i++ {
				if xs[i] > m[b] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeAndExceedance(t *testing.T) {
	// Execution times = Gumbel noise; the pWCET at 1e-15 must sit far in
	// the tail, above the sample maximum, and grow as p shrinks.
	truth := Gumbel{Mu: 100000, Beta: 500}
	rng := prng.New(13)
	times := make([]float64, 1000)
	for i := range times {
		times[i] = truth.Sample(rng)
	}
	w, err := Analyze(times, 0) // default block
	if err != nil {
		t.Fatal(err)
	}
	if w.Block != DefaultBlock || w.Runs != 1000 {
		t.Fatalf("model meta: %+v", w)
	}
	p15 := w.AtExceedance(1e-15)
	p12 := w.AtExceedance(1e-12)
	hwm := times[0]
	for _, x := range times {
		if x > hwm {
			hwm = x
		}
	}
	if p15 <= hwm {
		t.Fatalf("pWCET@1e-15 (%f) below hwm (%f)", p15, hwm)
	}
	if p15 <= p12 {
		t.Fatal("pWCET not monotone in exceedance probability")
	}
	if math.IsNaN(w.AtExceedance(0)) == false {
		t.Fatal("p=0 must be NaN")
	}
}

func TestAnalyzeConsistencyWithTruth(t *testing.T) {
	// Block maxima of Gumbel(mu, beta) over B samples are Gumbel(mu +
	// beta ln B, beta): the fitted tail must track the analytic one. The
	// location keeps every sample positive (valid execution times).
	truth := Gumbel{Mu: 50, Beta: 1}
	rng := prng.New(21)
	times := make([]float64, 20000)
	for i := range times {
		times[i] = truth.Sample(rng)
	}
	w, err := Analyze(times, 20)
	if err != nil {
		t.Fatal(err)
	}
	wantMu := truth.Mu + math.Log(20)
	if !almost(w.Fit.Mu, wantMu, 0.1) || !almost(w.Fit.Beta, 1, 0.1) {
		t.Fatalf("fit %+v, want mu~%f beta~1", w.Fit, wantMu)
	}
	// Per-run exceedance through the block model must approximate the
	// underlying law's quantile.
	got := w.AtExceedance(1e-6)
	want := truth.QuantileSurvival(1e-6)
	if math.Abs(got-want) > 1 {
		t.Fatalf("pWCET@1e-6 = %f, analytic %f", got, want)
	}
}

func TestCurveShape(t *testing.T) {
	w := PWCET{Fit: Gumbel{Mu: 1000, Beta: 10}, Block: 20, Runs: 1000}
	curve := w.Curve(1e-15)
	if len(curve) != 15 {
		t.Fatalf("curve has %d points, want 15 decades", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].X <= curve[i-1].X {
			t.Fatal("curve X not increasing as P decreases")
		}
		if curve[i].P >= curve[i-1].P {
			t.Fatal("curve P not decreasing")
		}
	}
}
