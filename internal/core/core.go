// Package core assembles the paper's system: MBPTA-compliant platforms
// built around Random Modulo (or hRP) caches, measurement campaigns that
// reseed the hardware per run, the MBPTA statistical pipeline
// (independence and identical-distribution tests, Gumbel fit, pWCET), and
// the deterministic high-water-mark baseline of industrial practice.
//
// This is the layer a user of the library interacts with: configure a
// platform, run a campaign over a workload, analyze it into a pWCET.
package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/evt"
	"repro/internal/iid"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// WriteSetup optionally overrides a cache level's write arrangement. The
// zero value keeps the platform convention (write-through no-allocate
// L1s, write-back L2 — the paper's safety-critical design point); the
// other values force a specific arrangement, which the ablation and
// differential-test surfaces use to exercise every replay kernel.
type WriteSetup int

// Write arrangements.
const (
	WriteDefault        WriteSetup = iota // platform convention per level
	WriteThroughNoAlloc                   // stores bypass the level on miss
	WriteThroughAlloc                     // store misses allocate, lines stay clean
	WriteBackAlloc                        // store hits/fills dirty the line; dirty victims write back
)

// CacheSetup selects the policies of one cache level.
type CacheSetup struct {
	Placement   placement.Kind
	Replacement cache.ReplacementKind
	// Write optionally overrides the level's write arrangement (see
	// WriteSetup; zero keeps the platform default).
	Write WriteSetup
}

// PlatformSpec describes the simulated platform. The zero value is not
// valid; start from PaperPlatform or DeterministicPlatform.
type PlatformSpec struct {
	L1SizeBytes  int
	L1Ways       int
	L2SizeBytes  int
	L2Ways       int
	LineBytes    int
	IL1, DL1, L2 CacheSetup
	Lat          sim.Latencies
}

// PaperPlatform returns the paper's evaluation platform (Section 4): 16KB
// 4-way L1s, a 128KB 4-way L2 partition, 32B lines, with the requested
// placement in the L1s. As in the paper's Section 4.3 setups, the L2 uses
// hRP in all randomized configurations ("For the L2 we use hRP in all
// cases") and random replacement everywhere.
func PaperPlatform(l1 placement.Kind) PlatformSpec {
	return PlatformSpec{
		L1SizeBytes: 16 * 1024,
		L1Ways:      4,
		L2SizeBytes: 128 * 1024,
		L2Ways:      4,
		LineBytes:   32,
		IL1:         CacheSetup{Placement: l1, Replacement: cache.Random},
		DL1:         CacheSetup{Placement: l1, Replacement: cache.Random},
		L2:          CacheSetup{Placement: placement.HRP, Replacement: cache.Random},
		Lat:         sim.DefaultLatencies(),
	}
}

// DeterministicPlatform returns the COTS-like baseline: modulo placement
// and LRU replacement at every level (the DET setup of Figure 4(b) and the
// "modulo" column of Section 4.4).
func DeterministicPlatform() PlatformSpec {
	det := CacheSetup{Placement: placement.Modulo, Replacement: cache.LRU}
	s := PaperPlatform(placement.Modulo)
	s.IL1, s.DL1, s.L2 = det, det, det
	return s
}

// PlatformFor maps a user-selected L1 placement to the platform the CLIs
// evaluate: PaperPlatform(kind), except that Modulo selects the fully
// deterministic modulo+LRU baseline (shared by rmsim and mbpta so the
// deterministic-baseline convention lives in one place).
func PlatformFor(kind placement.Kind) PlatformSpec {
	if kind == placement.Modulo {
		return DeterministicPlatform()
	}
	return PaperPlatform(kind)
}

// Config resolves the spec into the simulator's per-level cache
// configuration: write-through L1s and a write-back L2 unless a level's
// CacheSetup.Write overrides it. Build instantiates this configuration;
// multicore drivers hand it to sim.NewSystem.
func (s PlatformSpec) Config() sim.Config {
	mk := func(name string, size, ways int, cs CacheSetup, write cache.WritePolicy) cache.Config {
		cfg := cache.Config{
			Name:        name,
			SizeBytes:   size,
			Ways:        ways,
			LineBytes:   s.LineBytes,
			Placement:   cs.Placement,
			Replacement: cs.Replacement,
			Write:       write,
		}
		switch cs.Write {
		case WriteThroughNoAlloc:
			cfg.Write, cfg.AllocOnWrite = cache.WriteThrough, false
		case WriteThroughAlloc:
			cfg.Write, cfg.AllocOnWrite = cache.WriteThrough, true
		case WriteBackAlloc:
			cfg.Write, cfg.AllocOnWrite = cache.WriteBack, false
		}
		return cfg
	}
	return sim.Config{
		IL1: mk("IL1", s.L1SizeBytes, s.L1Ways, s.IL1, cache.WriteThrough),
		DL1: mk("DL1", s.L1SizeBytes, s.L1Ways, s.DL1, cache.WriteThrough),
		L2:  mk("L2", s.L2SizeBytes, s.L2Ways, s.L2, cache.WriteBack),
		Lat: s.Lat,
	}
}

// Build instantiates the platform.
func (s PlatformSpec) Build() (*sim.Core, error) { return sim.New(s.Config()) }

// CampaignResult holds the collected measurements.
type CampaignResult struct {
	// Times is the execution time of each run, in cycles. With
	// Request.KeepTimes = TimesDrop it is nil: the Summary accumulators
	// below carry the campaign's aggregates in O(1) memory instead.
	Times []float64
	// Summary holds the streaming aggregates of the measurement vector
	// (count, sum, extremes, quantile sketch); populated by the engine for
	// every campaign regardless of KeepTimes.
	Summary Summary
	// Levels holds the exact per-level cache counters summed over the
	// whole campaign (deterministic for any worker count).
	Levels LevelStats
	// Aggregated per-level miss ratios over the whole campaign.
	IL1Miss, DL1Miss, L2Miss float64
	Trace                    struct {
		Accesses int
		Fetches  int
		Loads    int
		Stores   int
	}
}

// HWM returns the campaign's high-water mark. It prefers the streaming
// Summary (exact, available even when Times was dropped) and falls back to
// the buffered vector for results constructed by hand.
func (r CampaignResult) HWM() float64 {
	if r.Summary.Moments.N > 0 {
		return r.Summary.Moments.Max
	}
	return stats.Max(r.Times)
}

// Mean returns the campaign's mean execution time (exact from the
// streaming Summary; see HWM for the fallback rule).
func (r CampaignResult) Mean() float64 {
	if r.Summary.Moments.N > 0 {
		return r.Summary.Moments.Mean()
	}
	return stats.Mean(r.Times)
}

// hwmSeedTag keeps the baseline's layout streams disjoint from the
// randomized campaign's hardware-seed streams under the same master seed.
const hwmSeedTag = 0xDE7

// Analysis is the MBPTA pipeline output for one campaign.
type Analysis struct {
	WW      iid.WWResult // Wald-Wolfowitz independence test
	KS      iid.KSResult // two-sample KS identical-distribution test
	ET      iid.ETResult // ET Gumbel-convergence test
	Model   evt.PWCET    // fitted Gumbel block-maxima model
	PWCET15 float64      // pWCET at exceedance 1e-15 (highest criticality)
	PWCET12 float64      // pWCET at exceedance 1e-12
	IIDPass bool         // WW and KS both pass
}

// CutoffHigh and CutoffLow are the per-run exceedance probabilities the
// paper evaluates: 1e-15 for the highest criticality levels, 1e-12
// otherwise (Section 4.3).
const (
	CutoffHigh = 1e-15
	CutoffLow  = 1e-12
)

// Analyze applies the full MBPTA pipeline to a campaign's execution times.
//
// Simulated execution times are exact cycle counts, so identical values
// are frequent -- unlike measurements on real hardware, which carry
// sub-cycle phase noise. The statistical tests receive a deterministic
// sub-cycle dither as a continuity correction (the runs test in
// particular breaks down when most observations tie the median); the EVT
// fit uses the raw times.
//
// Analyze is the buffered reference pipeline: the engine computes the same
// analysis from streaming accumulators without retaining the vector, and
// differential tests pin the two paths bit-identical. Times containing
// NaN, infinite or negative values are rejected with a typed
// *evt.InvalidTimeError (unwrappable via errors.As) before any statistics
// run.
func Analyze(times []float64) (Analysis, error) {
	if err := evt.ValidateTimes(times); err != nil {
		return Analysis{}, fmt.Errorf("core: invalid measurement: %w", err)
	}
	block := evt.BlockFor(len(times))
	maxima, merr := evt.BlockMaxima(times, block)
	return analyzeParts(iidWindow(times), maxima, merr, block, len(times))
}

// ditherTies adds a deterministic sub-cycle perturbation to break the ties
// that exact cycle counting produces. The amplitude (under one cycle) is
// far below any simulated latency, so distribution shape is unaffected.
func ditherTies(xs []float64) []float64 {
	//rm:deterministic fixed-seed tie dithering: one shared stream keeps the perturbation reproducible and identical across campaigns (pinned by BENCH_PR*.json)
	g := prng.New(0xD17E4)
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x + g.Float64() - 0.5
	}
	return out
}
