// Package iid implements the statistical admissibility tests that MBPTA
// applies to execution-time measurements before EVT may be used (paper,
// Section 4.2 / Table 2):
//
//   - the Wald-Wolfowitz runs test for independence (pass when the
//     statistic is below 1.96 at the 5% significance level),
//   - the two-sample Kolmogorov-Smirnov test for identical distribution
//     (pass when the p-value exceeds 0.05),
//   - the ET test of Garrido and Diebolt for convergence of the
//     distribution tail to the exponential shape that characterizes the
//     Gumbel maximum domain of attraction.
package iid

import (
	"errors"
	"math"
	"sort"
	"sync"

	"repro/internal/prng"
	"repro/internal/stats"
)

// ErrTooFewSamples reports a sample too small for the requested test.
var ErrTooFewSamples = errors.New("iid: too few samples")

// Alpha is the significance level used throughout the paper.
const Alpha = 0.05

// Window is the admissibility-test window: the fixed-size measurement
// prefix the WW, KS and ET tests examine in the streaming analysis path.
// The tests are sequence tests — they need raw observations, not
// mergeable aggregates — so campaigns larger than the window test the
// first Window runs and stream the rest through the O(1) accumulators.
// Every historical campaign scale (the paper's 1000-run campaigns, the
// BENCH trajectories' <= 160 runs) fits inside the window, so windowing
// changes nothing for them: it only bounds memory for the million-run
// campaigns the streaming path enables. The power of the tests at n =
// 4096 is far past the point of diminishing returns for a 5% level.
const Window = 4096

// WWCritical is the two-sided 5% critical value of the standard normal,
// the acceptance threshold the paper quotes for the runs test.
const WWCritical = 1.96

// WWResult reports a Wald-Wolfowitz runs test.
type WWResult struct {
	Stat float64 // |Z|: the absolute standardized run count (Table 2 rows)
	Z    float64 // signed statistic
	Runs int     // observed runs
	N1   int     // observations above the median
	N2   int     // observations below the median
	Pass bool    // Stat < 1.96
}

// WaldWolfowitz applies the runs test for independence: the sequence is
// binarized against its median (ties dropped, the standard treatment), the
// number of runs is compared with its null distribution, and the
// standardized statistic is returned. Small |Z| means no evidence of serial
// dependence.
func WaldWolfowitz(xs []float64) (WWResult, error) {
	if len(xs) < 20 {
		return WWResult{}, ErrTooFewSamples
	}
	med := stats.Quantile(xs, 0.5)
	signs := make([]bool, 0, len(xs))
	for _, x := range xs {
		if x == med {
			continue
		}
		signs = append(signs, x > med)
	}
	n1, n2 := 0, 0
	for _, s := range signs {
		if s {
			n1++
		} else {
			n2++
		}
	}
	if n1 == 0 || n2 == 0 {
		return WWResult{}, errors.New("iid: degenerate sample (constant)")
	}
	runs := 1
	for i := 1; i < len(signs); i++ {
		if signs[i] != signs[i-1] {
			runs++
		}
	}
	n := float64(n1 + n2)
	f1, f2 := float64(n1), float64(n2)
	mu := 2*f1*f2/n + 1
	sigma2 := 2 * f1 * f2 * (2*f1*f2 - n) / (n * n * (n - 1))
	if sigma2 <= 0 {
		return WWResult{}, errors.New("iid: runs variance non-positive")
	}
	z := (float64(runs) - mu) / math.Sqrt(sigma2)
	r := WWResult{Stat: math.Abs(z), Z: z, Runs: runs, N1: n1, N2: n2}
	r.Pass = r.Stat < WWCritical
	return r, nil
}

// KSResult reports a two-sample Kolmogorov-Smirnov test.
type KSResult struct {
	D    float64 // sup distance between the two empirical CDFs
	P    float64 // asymptotic p-value (Table 2 rows)
	Pass bool    // P > 0.05
}

// KolmogorovSmirnov2 applies the two-sample KS identical-distribution
// test. Large p-values mean the two samples are compatible with a common
// distribution. A sample holding a NaN is rejected with an error.
func KolmogorovSmirnov2(a, b []float64) (KSResult, error) {
	if len(a) < 10 || len(b) < 10 {
		return KSResult{}, ErrTooFewSamples
	}
	sa, sb := stats.Sorted(a), stats.Sorted(b)
	// A NaN compares false both ways, so the merge below would never
	// advance past it; Sorted puts NaNs first.
	if math.IsNaN(sa[0]) || math.IsNaN(sb[0]) {
		return KSResult{}, errors.New("iid: sample holds a NaN")
	}
	na, nb := len(sa), len(sb)
	var d float64
	i, j := 0, 0
	for i < na && j < nb {
		// Consume all ties of the smaller value on both sides before
		// comparing the CDFs, so equal observations never create a
		// spurious gap.
		va, vb := sa[i], sb[j]
		if va <= vb {
			for i < na && sa[i] == va {
				i++
			}
		}
		if vb <= va {
			for j < nb && sb[j] == vb {
				j++
			}
		}
		diff := math.Abs(float64(i)/float64(na) - float64(j)/float64(nb))
		if diff > d {
			d = diff
		}
	}
	ne := float64(na) * float64(nb) / float64(na+nb)
	sqne := math.Sqrt(ne)
	lambda := (sqne + 0.12 + 0.11/sqne) * d
	p := stats.KolmogorovSurvival(lambda)
	return KSResult{D: d, P: p, Pass: p > Alpha}, nil
}

// KSSplit applies the two-sample KS test to the two halves of a
// measurement sequence, the standard MBPTA protocol for checking that the
// collected execution times are identically distributed over the campaign.
func KSSplit(xs []float64) (KSResult, error) {
	if len(xs) < 20 {
		return KSResult{}, ErrTooFewSamples
	}
	h := len(xs) / 2
	return KolmogorovSmirnov2(xs[:h], xs[h:])
}

// ETResult reports an ET (exponential tail) test.
type ETResult struct {
	Stat      float64 // KS distance between tail excesses and fitted exponential
	P         float64 // Monte-Carlo p-value (Lilliefors-adjusted)
	Threshold float64 // tail threshold u
	TailN     int     // number of excesses used
	Pass      bool    // P > 0.05
}

// ETTest applies the Garrido-Diebolt style goodness-of-fit test for an
// exponential distribution tail: excesses over the (1-tailFrac) empirical
// quantile are compared against an exponential with the estimated mean.
// Because the mean is estimated from the same data, critical values come
// from a Monte-Carlo simulation of the null (the Lilliefors construction):
// the statistics of etReps exponential samples of the tail size, drawn
// from one fixed-seed stream. They depend on the tail size alone, so they
// are simulated once per tail size per process and kept as a sorted table
// (etNull); every test counts the table entries at or above its statistic
// with one binary search (etPValue). The first test at a size pays for
// the simulation, about as long as one ET test used to take; later tests
// at that size cost the tail extraction and one KS distance. A pass
// supports convergence of block maxima to a Gumbel law, as required
// before applying EVT (paper, Section 4.2: "We also applied and passed
// the ET test for Gumbel convergence testing").
func ETTest(xs []float64, tailFrac float64) (ETResult, error) {
	if tailFrac <= 0 || tailFrac >= 1 {
		return ETResult{}, errors.New("iid: tail fraction must be in (0,1)")
	}
	if len(xs) < 40 {
		return ETResult{}, ErrTooFewSamples
	}
	u := stats.Quantile(xs, 1-tailFrac)
	n := 0
	for _, x := range xs {
		if x > u {
			n++
		}
	}
	if n < 10 {
		return ETResult{}, ErrTooFewSamples
	}
	exc := make([]float64, 0, n)
	for _, x := range xs {
		if x > u {
			exc = append(exc, x-u)
		}
	}
	d := ksExpDistance(exc)
	p := etPValue(d, len(exc))
	return ETResult{Stat: d, P: p, Threshold: u, TailN: len(exc), Pass: p > Alpha}, nil
}

// etReps is the number of simulated exponential samples in the ET test's
// null distribution.
const etReps = 400

// etPValue is the ET test's Monte-Carlo p-value for statistic d at tail
// size n: the simulated statistics at or above d, plus one for d itself,
// over etReps+1. No entry compares >= a NaN d, so a NaN counts none.
func etPValue(d float64, n int) float64 {
	null := etNull(n)
	ge := len(null) - sort.SearchFloat64s(null, d)
	return float64(ge+1) / float64(etReps+1)
}

// etNulls maps a tail size to the sync.OnceValue that builds its null
// distribution. Only the sizes an ET test has used have an entry; they
// are at most the tested sample's length, so Window bounds them in
// campaigns.
var etNulls sync.Map

// etNull returns the ET test's null distribution for tail size n: the
// KS distances of etReps exponential samples of size n from their own
// fitted exponentials, sorted ascending. The first call for n simulates
// them; later calls, from any goroutine, share the table.
func etNull(n int) []float64 {
	build, ok := etNulls.Load(n)
	if !ok {
		build, _ = etNulls.LoadOrStore(n, sync.OnceValue(func() []float64 {
			//rm:deterministic fixed-seed null-distribution simulation: the ET-test p-value must be identical in every process (pinned by BENCH_PR*.json)
			g := prng.New(0xE7E7)
			null := make([]float64, etReps)
			sim := make([]float64, n)
			for r := range null {
				for i := range sim {
					sim[i] = -math.Log(1 - g.Float64())
				}
				null[r] = ksExpDistance(sim)
			}
			sort.Float64s(null)
			return null
		}))
	}
	return build.(func() []float64)()
}

// ETTestSearch applies the ET test over a grid of candidate tail sizes and
// returns the most favourable result. This is the standard
// peaks-over-threshold protocol: extreme value theory guarantees excesses
// become exponential beyond *some* threshold, so the analyst searches for
// a threshold at which the exponential fit is acceptable; failure at every
// threshold is evidence against Gumbel convergence.
func ETTestSearch(xs []float64, tailSizes []int) (ETResult, error) {
	if len(tailSizes) == 0 {
		tailSizes = []int{60, 40, 25, 15}
	}
	var best ETResult
	var lastErr error
	found := false
	for _, k := range tailSizes {
		if k < 10 || k >= len(xs) {
			continue
		}
		r, err := ETTest(xs, float64(k)/float64(len(xs)))
		if err != nil {
			lastErr = err
			continue
		}
		if !found || r.P > best.P {
			best = r
			found = true
		}
		if best.Pass {
			return best, nil
		}
	}
	if !found {
		if lastErr == nil {
			lastErr = ErrTooFewSamples
		}
		return ETResult{}, lastErr
	}
	return best, nil
}

// ksExpDistance returns the KS distance between a sample and the
// exponential distribution with the sample's own mean. It sorts exc in
// place, after summing it in the caller's order.
func ksExpDistance(exc []float64) float64 {
	mean := stats.Mean(exc)
	if mean <= 0 {
		return 1
	}
	sort.Float64s(exc)
	n := float64(len(exc))
	var d float64
	for i, x := range exc {
		f := 1 - math.Exp(-x/mean)
		lo := float64(i) / n
		hi := float64(i+1) / n
		if diff := math.Abs(f - lo); diff > d {
			d = diff
		}
		if diff := math.Abs(f - hi); diff > d {
			d = diff
		}
	}
	return d
}
