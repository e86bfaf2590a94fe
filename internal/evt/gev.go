package evt

import (
	"math"

	"repro/internal/stats"
)

// GEV is the generalized extreme value distribution in the Hosking
// parameterization: location Xi, scale Alpha > 0 and shape K, with
//
//	F(x) = exp(-(1 - K (x-Xi)/Alpha)^(1/K))   for K != 0,
//
// reducing to Gumbel(Xi, Alpha) as K -> 0. Positive K corresponds to the
// Weibull domain of attraction (bounded upper tail), negative K to
// Frechet (heavy tail).
//
// The original MBPTA method of the paper forces the Gumbel model (K = 0),
// which upper-bounds light tails conservatively; later MBPTA practice
// also considers the full GEV. This implementation exists as an extension
// so the estimator choice can be ablated (see EXPERIMENTS.md): on the
// simulated platform's light-tailed benchmarks the GEV fit shows how much
// of the pWCET-vs-hwm gap is estimator conservatism rather than platform
// behaviour.
type GEV struct {
	Xi    float64
	Alpha float64
	K     float64
}

// QuantileSurvival returns the x with P(X > x) = q, accurate for tiny q.
func (g GEV) QuantileSurvival(q float64) float64 {
	if q <= 0 || q >= 1 {
		return math.NaN()
	}
	if g.K == 0 {
		return Gumbel{Mu: g.Xi, Beta: g.Alpha}.QuantileSurvival(q)
	}
	// -log(p) with p = 1-q, computed stably.
	l := -math.Log1p(-q)
	return g.Xi + g.Alpha*(1-math.Pow(l, g.K))/g.K
}

// FitGEV fits a GEV distribution by probability-weighted moments
// (Hosking, Wallis & Wood 1985): the standard robust estimator for the
// three-parameter family.
func FitGEV(xs []float64) (GEV, error) {
	n := len(xs)
	if n < 20 {
		return GEV{}, ErrBadSample
	}
	s := stats.Sorted(xs)
	var b0, b1, b2 float64
	for i, x := range s {
		fi := float64(i)
		b0 += x
		b1 += x * fi / float64(n-1)
		b2 += x * fi * (fi - 1) / (float64(n-1) * float64(n-2))
	}
	b0 /= float64(n)
	b1 /= float64(n)
	b2 /= float64(n)

	den := 3*b2 - b0
	if den == 0 {
		return GEV{}, ErrBadSample
	}
	c := (2*b1-b0)/den - math.Ln2/math.Log(3)
	k := 7.8590*c + 2.9554*c*c
	if math.Abs(k) < 1e-9 {
		// Effectively Gumbel.
		g, err := FitPWM(xs)
		if err != nil {
			return GEV{}, err
		}
		return GEV{Xi: g.Mu, Alpha: g.Beta, K: 0}, nil
	}
	gk := math.Gamma(1 + k)
	alpha := (2*b1 - b0) * k / (gk * (1 - math.Pow(2, -k)))
	if alpha <= 0 || math.IsNaN(alpha) {
		return GEV{}, ErrBadSample
	}
	xi := b0 + alpha*(gk-1)/k
	return GEV{Xi: xi, Alpha: alpha, K: k}, nil
}

// PWCETGEV is the GEV analogue of PWCET: a fitted model over block maxima
// with a per-run exceedance interface.
type PWCETGEV struct {
	Fit   GEV
	Block int
	Runs  int
}

// AnalyzeGEV fits a GEV pWCET model to execution times using block maxima.
// With block <= 0 the size adapts so at least twenty maxima remain (the
// three-parameter fit needs more support than the Gumbel one).
func AnalyzeGEV(times []float64, block int) (PWCETGEV, error) {
	if block <= 0 {
		block = DefaultBlock
		if len(times)/block < 20 {
			block = len(times) / 20
		}
		if block < 2 {
			block = 2
		}
	}
	maxima, err := BlockMaxima(times, block)
	if err != nil {
		return PWCETGEV{}, err
	}
	fit, err := FitGEV(maxima)
	if err != nil {
		return PWCETGEV{}, err
	}
	return PWCETGEV{Fit: fit, Block: block, Runs: len(times)}, nil
}

// AtExceedance returns the pWCET estimate at per-run exceedance p.
func (w PWCETGEV) AtExceedance(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	q := -math.Expm1(float64(w.Block) * math.Log1p(-p))
	return w.Fit.QuantileSurvival(q)
}
