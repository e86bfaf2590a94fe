// Package stats provides the numeric substrate shared by the MBPTA
// pipeline: descriptive statistics, empirical distribution functions,
// histograms (the PDFs of Figure 5), quantiles, and the Kolmogorov
// distribution the two-sample KS test needs.
//
// Everything is implemented from scratch on the stdlib math package; no
// external numeric dependencies.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty reports an empty sample where one or more values are required.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest value; it panics on an empty sample.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value -- the high-water mark (hwm) of the
// industrial practice in Section 4.4; it panics on an empty sample.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}

// Quantile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics (Hyndman-Fan type 7, the common
// default). It panics on an empty sample or p outside [0,1].
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic("stats: quantile probability out of [0,1]")
	}
	s := Sorted(xs)
	return QuantileSorted(s, p)
}

// QuantileSorted is Quantile for an already-sorted sample.
func QuantileSorted(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		panic(ErrEmpty)
	}
	if n == 1 {
		return s[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return s[n-1]
	}
	frac := h - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from a sample.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	return &ECDF{sorted: Sorted(xs)}, nil
}

// Values returns the sorted sample (shared slice; do not modify).
func (e *ECDF) Values() []float64 { return e.sorted }

// Histogram is a fixed-width binned density estimate, the representation
// behind the probability density plots of Figure 5(a,b).
type Histogram struct {
	Lo, Hi   float64
	BinWidth float64
	Counts   []int
	Total    int
}

// NewHistogram bins xs into bins equal-width bins spanning [min, max].
func NewHistogram(xs []float64, bins int) (*Histogram, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	if bins < 1 {
		return nil, errors.New("stats: histogram needs at least one bin")
	}
	lo, hi := Min(xs), Max(xs)
	if lo == hi {
		hi = lo + 1 // degenerate sample: single bin of width 1
	}
	h := &Histogram{
		Lo:       lo,
		Hi:       hi,
		BinWidth: (hi - lo) / float64(bins),
		Counts:   make([]int, bins),
		Total:    len(xs),
	}
	for _, x := range xs {
		i := int((x - lo) / h.BinWidth)
		if i >= bins {
			i = bins - 1
		}
		if i < 0 {
			i = 0
		}
		h.Counts[i]++
	}
	return h, nil
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth
}

// KolmogorovSurvival returns Q_KS(lambda) = 2 sum_{j>=1} (-1)^{j-1}
// exp(-2 j^2 lambda^2), the asymptotic survival function of the Kolmogorov
// statistic used to convert two-sample KS distances into p-values.
func KolmogorovSurvival(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for j := 1; j <= 100; j++ {
		term := sign * math.Exp(-2*float64(j*j)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12*math.Abs(sum) || math.Abs(term) < 1e-300 {
			break
		}
		sign = -sign
	}
	q := 2 * sum
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}
