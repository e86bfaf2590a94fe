// Package evt implements the Extreme Value Theory machinery of MBPTA
// (paper, Section 2): block maxima extraction, Gumbel distribution fitting
// by probability-weighted moments, and probabilistic WCET (pWCET)
// estimation -- the execution-time value whose per-run exceedance
// probability is below a chosen cutoff such as 1e-15.
package evt

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// EulerGamma is the Euler-Mascheroni constant, the mean of the standard
// Gumbel distribution.
const EulerGamma = 0.5772156649015329

// Gumbel is the type-I extreme value distribution with location Mu and
// scale Beta: F(x) = exp(-exp(-(x-Mu)/Beta)).
type Gumbel struct {
	Mu   float64
	Beta float64
}

// QuantileSurvival returns the x with P(X > x) = q. It is accurate for
// arbitrarily small q (the pWCET regime: q down to 1e-15 and below), where
// the quantile at 1-q would lose all precision.
func (g Gumbel) QuantileSurvival(q float64) float64 {
	if q <= 0 || q >= 1 {
		return math.NaN()
	}
	// Survival(x) = q  <=>  x = Mu - Beta*ln(-ln(1-q)); -ln(1-q) via Log1p.
	return g.Mu - g.Beta*math.Log(-math.Log1p(-q))
}

// ErrBadSample reports an unusable input sample.
var ErrBadSample = errors.New("evt: unusable sample")

// InvalidTimeError reports a measurement that can never be a valid
// execution time — NaN, an infinity, or a negative value. Feeding such a
// value into the Gumbel fit would silently poison every downstream pWCET
// estimate, so Analyze rejects the sample with this typed error instead.
type InvalidTimeError struct {
	Index int     // position of the offending measurement
	Value float64 // the offending value
}

func (e *InvalidTimeError) Error() string {
	return fmt.Sprintf("evt: invalid execution time at index %d: %v (times must be finite and non-negative)", e.Index, e.Value)
}

// ValidateTimes scans a measurement vector for NaN, infinite or negative
// values and returns an *InvalidTimeError for the first (lowest-index)
// offender, or nil when every value is a plausible execution time.
func ValidateTimes(xs []float64) error {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return &InvalidTimeError{Index: i, Value: x}
		}
	}
	return nil
}

// FitPWM fits a Gumbel distribution by probability-weighted moments
// (Hosking's unbiased estimators), the robust default of the MBPTA
// literature: beta = (2*b1 - b0)/ln 2, mu = b0 - EulerGamma*beta.
func FitPWM(xs []float64) (Gumbel, error) {
	n := len(xs)
	if n < 10 {
		return Gumbel{}, ErrBadSample
	}
	s := stats.Sorted(xs)
	b0 := 0.0
	b1 := 0.0
	for i, x := range s {
		b0 += x
		b1 += x * float64(i) / float64(n-1)
	}
	b0 /= float64(n)
	b1 /= float64(n)
	beta := (2*b1 - b0) / math.Ln2
	if beta <= 0 || math.IsNaN(beta) {
		return Gumbel{}, ErrBadSample
	}
	return Gumbel{Mu: b0 - EulerGamma*beta, Beta: beta}, nil
}

// BlockMaxima splits xs into consecutive blocks of size block and returns
// each block's maximum; a trailing partial block is dropped. This is the
// EVT reduction step of MBPTA.
func BlockMaxima(xs []float64, block int) ([]float64, error) {
	if block < 1 {
		return nil, errors.New("evt: block size must be >= 1")
	}
	nb := len(xs) / block
	if nb < 2 {
		return nil, ErrBadSample
	}
	out := make([]float64, nb)
	for b := 0; b < nb; b++ {
		m := xs[b*block]
		for i := b*block + 1; i < (b+1)*block; i++ {
			if xs[i] > m {
				m = xs[i]
			}
		}
		out[b] = m
	}
	return out, nil
}

// PWCET is a fitted probabilistic WCET model: a Gumbel law over maxima of
// Block consecutive runs.
type PWCET struct {
	Fit   Gumbel
	Block int
	Runs  int // measurements consumed
}

// DefaultBlock is the block size used throughout the evaluation; with the
// paper's 1000-run campaigns it leaves 50 maxima for the fit.
const DefaultBlock = 20

// BlockFor returns the adaptive block size Analyze uses for an n-run
// campaign: DefaultBlock when the campaign affords at least ten maxima,
// smaller otherwise (never below 2), so reduced-scale campaigns remain
// analyzable. It is a pure function of the total run count, which lets
// streaming consumers size their block-maxima accumulators before the
// first measurement arrives.
func BlockFor(n int) int {
	block := DefaultBlock
	if n/block < 10 {
		block = n / 10
	}
	if block < 2 {
		block = 2
	}
	return block
}

// Analyze fits a pWCET model to a sequence of execution times using block
// maxima of the given size and a PWM Gumbel fit. With block <= 0 the size
// adapts via BlockFor. Times containing NaN, infinite or negative values
// are rejected with an *InvalidTimeError.
func Analyze(times []float64, block int) (PWCET, error) {
	if err := ValidateTimes(times); err != nil {
		return PWCET{}, err
	}
	if block <= 0 {
		block = BlockFor(len(times))
	}
	maxima, err := BlockMaxima(times, block)
	if err != nil {
		return PWCET{}, err
	}
	return AnalyzeMaxima(maxima, block, len(times))
}

// AnalyzeMaxima fits the pWCET model from an already-reduced block-maxima
// vector — the streaming entry point: a campaign that accumulated exact
// per-block maxima online (stats.BlockMax) fits the same model as Analyze
// without ever buffering the measurement vector. block is the size of the
// blocks the maxima were taken over and runs the measurement count the
// model consumed (recorded in PWCET.Runs).
func AnalyzeMaxima(maxima []float64, block, runs int) (PWCET, error) {
	if block < 1 {
		return PWCET{}, errors.New("evt: block size must be >= 1")
	}
	if len(maxima) < 2 {
		return PWCET{}, ErrBadSample
	}
	fit, err := FitPWM(maxima)
	if err != nil {
		return PWCET{}, err
	}
	return PWCET{Fit: fit, Block: block, Runs: runs}, nil
}

// AtExceedance returns the pWCET estimate at a per-run exceedance
// probability p (e.g. 1e-15, the cutoff the paper uses for the highest
// criticality levels): the execution time exceeded by one run with
// probability at most p.
//
// The fitted law describes maxima of Block runs; a per-run exceedance p
// corresponds to a block exceedance q = 1-(1-p)^Block, computed stably.
func (w PWCET) AtExceedance(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	q := -math.Expm1(float64(w.Block) * math.Log1p(-p))
	return w.Fit.QuantileSurvival(q)
}

// CurvePoint is one point of a pWCET CCDF curve: execution time X at
// per-run exceedance probability P.
type CurvePoint struct {
	X float64
	P float64
}

// Curve returns the pWCET curve from exceedance 1e-1 down to pMin in
// decade steps, the log-scale CCDF representation of Figure 1 and
// Figure 5(c). pMin must lie in (0, 1).
func (w PWCET) Curve(pMin float64) []CurvePoint {
	var out []CurvePoint
	for p := 0.1; p >= pMin*0.999; p /= 10 {
		out = append(out, CurvePoint{X: w.AtExceedance(p), P: p})
	}
	return out
}
