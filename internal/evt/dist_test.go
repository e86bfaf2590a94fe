package evt

import (
	"math"

	"repro/internal/prng"
)

// The distribution functions below draw samples from and check against
// known tails; production only needs the survival quantiles.

// CDF returns P(X <= x).
func (g Gumbel) CDF(x float64) float64 {
	return math.Exp(-math.Exp(-(x - g.Mu) / g.Beta))
}

// Quantile returns the x with CDF(x) = p, 0 < p < 1.
func (g Gumbel) Quantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	return g.Mu - g.Beta*math.Log(-math.Log(p))
}

// Sample draws one variate using the inverse transform.
func (g Gumbel) Sample(rng *prng.PRNG) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return g.Quantile(u)
}

// CDF returns P(X <= x).
func (g GEV) CDF(x float64) float64 {
	if g.K == 0 {
		return Gumbel{Mu: g.Xi, Beta: g.Alpha}.CDF(x)
	}
	y := 1 - g.K*(x-g.Xi)/g.Alpha
	if y <= 0 {
		if g.K > 0 {
			return 1 // beyond the finite upper endpoint
		}
		return 0 // below the finite lower endpoint
	}
	return math.Exp(-math.Pow(y, 1/g.K))
}

// Quantile returns the x with CDF(x) = p, 0 < p < 1.
func (g GEV) Quantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	if g.K == 0 {
		return Gumbel{Mu: g.Xi, Beta: g.Alpha}.Quantile(p)
	}
	return g.Xi + g.Alpha*(1-math.Pow(-math.Log(p), g.K))/g.K
}

// UpperEndpoint returns the distribution's finite upper bound for K > 0,
// or +Inf otherwise.
func (g GEV) UpperEndpoint() float64 {
	if g.K > 0 {
		return g.Xi + g.Alpha/g.K
	}
	return math.Inf(1)
}
