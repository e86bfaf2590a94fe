package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/evt"
	"repro/internal/iid"
	"repro/internal/security"
	"repro/internal/stats"
)

// Summary is the streaming aggregate of a campaign's measurement vector:
// what every campaign retains even when Request.KeepTimes drops the
// per-run times. Count, Sum, extremes and the sketch's bucket counts are
// exact and identical for any worker count (cycle counts are integral, so
// the float64 Sum is exact below 2^53 and grouping-independent); the
// variance estimator inside Moments is numerically stable but its last
// ulps may depend on chunk boundaries, so it is excluded from the
// bit-identity contract.
type Summary struct {
	Moments stats.Moments
	Sketch  stats.QuantileSketch
}

// Snapshot is a deterministic mid-campaign view of the streaming
// accumulators, emitted on the event stream (SnapshotTaken) each time the
// merged contiguous run prefix advances and served by the campaign
// service while a campaign is in flight. Its content is a pure function
// of the first Runs measurements: two snapshots covering the same prefix
// are identical regardless of worker count or chunk scheduling (only
// *which* prefixes get snapshotted depends on chunking).
type Snapshot struct {
	Runs  int // contiguous completed-run prefix the snapshot covers
	Total int // campaign size (Request.Runs)

	// Exact aggregates of the covered prefix.
	Mean float64
	Min  float64
	Max  float64

	// Deterministic sketch quantile estimates of the covered prefix.
	P50 float64
	P95 float64
	P99 float64

	// Converging pWCET estimates fitted on the complete blocks within the
	// prefix (zero until the prefix affords enough maxima for a fit).
	Blocks  int
	PWCET12 float64
	PWCET15 float64

	// AccumBytes is the resident accumulator footprint — the O(1)-in-runs
	// steady-state memory claim, observable via rm_accumulator_peak_bytes.
	AccumBytes int
}

// campaignAccum is the streaming state of one campaign, of any kind
// (single-core or multicore MBPTA, baseline, security): the central
// accumulators, merged chunk by chunk in canonical run-index
// order at the campaign's commit frontier. shardRuns claims chunks
// dynamically, so they complete out of order; commit parks each one
// (bounded by the chunk count, a few per worker) until the contiguous run
// prefix reaches it, which makes the merge sequence, every snapshot and
// every checkpoint independent of scheduling. mu guards the frontier and
// the central accumulators, and orders the workers' run-indexed writes
// before any read of the merged prefix.
type campaignAccum struct {
	mu       sync.Mutex
	pending  map[int]*chunkAccum // completed chunks past the frontier, by lo
	merged   int                 // runs [0, merged) are merged
	every    int                 // checkpoint stride
	lastCkpt int
	// Called under mu, each optional: advanced observes every frontier
	// advance, and checkpoint captures one each time the frontier has
	// advanced at least every runs past the previous capture.
	advanced   func()
	checkpoint func()

	total int
	block int // evt.BlockFor(total)
	// window buffers the first min(total, iid.Window) measurements for the
	// sequence-based admissibility tests (see iid.Window). Workers write
	// disjoint run-indexed slots, so it needs no lock.
	window []float64

	moments stats.Moments
	sketch  stats.QuantileSketch
	maxima  *stats.BlockMax // central per-block maxima, blocks [0, total/block)
	levels  LevelStats      // per-level counters, merged in frontier order
	badRun  int             // lowest invalid-measurement run index (-1: none)
	badVal  float64

	// Checkpoint capture (see checkpoint.go). meta carries the request
	// identity stamped into every checkpoint; times aliases the caller's
	// buffered vector and rounds a security campaign's per-round outputs
	// (run-indexed writes for merged runs happen-before the commit that
	// advanced the frontier past them, so reading the prefix under mu is
	// race-free).
	meta   ckptMeta
	times  []float64
	rounds []security.RoundOut
}

// ckptMeta is the request identity stamped into checkpoints.
type ckptMeta struct {
	kind      Kind
	seed      uint64
	keepTimes TimesMode
}

func newCampaignAccum(total int) *campaignAccum {
	block := evt.BlockFor(total)
	return &campaignAccum{
		pending: make(map[int]*chunkAccum),
		total:   total,
		block:   block,
		window:  make([]float64, min(total, iid.Window)),
		maxima:  stats.NewBlockMax(block, 0, total/block),
		badRun:  -1,
	}
}

// chunkAccum accumulates one claimed chunk of runs [lo, hi) privately (no
// locks on the per-run path); commit merges it centrally once the chunk
// completes.
type chunkAccum struct {
	lo, hi  int
	moments stats.Moments
	sketch  stats.QuantileSketch
	maxima  *stats.BlockMax // blocks intersecting [lo, hi)
	levels  LevelStats
	badRun  int
	badVal  float64
}

// newChunk returns a private accumulator for runs [lo, hi).
func (a *campaignAccum) newChunk(lo, hi int) *chunkAccum {
	return &chunkAccum{
		lo: lo, hi: hi,
		maxima: stats.NewBlockMax(a.block, lo/a.block, (hi-1)/a.block+1),
		badRun: -1,
	}
}

// add accumulates one run's execution time. This is the streaming hot
// path: every run of every campaign passes through it, so it must stay
// allocation-free.
//
//rm:hotpath
func (c *chunkAccum) add(run int, x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
		if c.badRun < 0 || run < c.badRun {
			c.badRun, c.badVal = run, x
		}
	}
	c.moments.Add(x)
	c.sketch.Add(x)
	c.maxima.Add(run, x)
}

// mergeChunk folds one completed chunk into the central accumulators.
// Chunks arrive here in run-index order (the commit frontier guarantees
// it), so the merged aggregates are identical for any worker count.
//
//rm:hotpath
func (a *campaignAccum) mergeChunk(c *chunkAccum) {
	a.moments.Merge(&c.moments)
	a.sketch.Merge(&c.sketch)
	a.maxima.Merge(c.maxima)
	a.levels.IL1 = addStats(a.levels.IL1, c.levels.IL1)
	a.levels.DL1 = addStats(a.levels.DL1, c.levels.DL1)
	a.levels.L2 = addStats(a.levels.L2, c.levels.L2)
	if c.badRun >= 0 && (a.badRun < 0 || c.badRun < a.badRun) {
		a.badRun, a.badVal = c.badRun, c.badVal
	}
}

// commit records a completed chunk and advances the frontier over every
// chunk that is now contiguous with the merged prefix, merging each.
func (a *campaignAccum) commit(c *chunkAccum) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pending[c.lo] = c
	advanced := false
	for p, ok := a.pending[a.merged]; ok; p, ok = a.pending[a.merged] {
		delete(a.pending, a.merged)
		a.mergeChunk(p)
		a.merged = p.hi
		advanced = true
	}
	if !advanced {
		return
	}
	if a.advanced != nil {
		a.advanced()
	}
	if a.checkpoint != nil && a.merged-a.lastCkpt >= a.every {
		a.lastCkpt = a.merged
		a.checkpoint()
	}
}

// checkpointLocked captures the merged frontier as a self-contained
// Checkpoint (all slices copied: the accumulators keep mutating after the
// capture). Called with mu held.
func (a *campaignAccum) checkpointLocked() *Checkpoint {
	cp := &Checkpoint{
		Kind:       a.meta.kind,
		MasterSeed: a.meta.seed,
		Runs:       a.total,
		KeepTimes:  a.meta.keepTimes,
		Frontier:   a.merged,
		Moments:    a.moments,
		Sketch:     a.sketch,
		BadRun:     a.badRun,
		BadVal:     a.badVal,
		Levels:     a.levels,
	}
	cp.Window = append([]float64(nil), a.window[:min(a.merged, len(a.window))]...)
	cp.Maxima = stats.NewBlockMax(a.maxima.Block, 0, len(a.maxima.Max))
	copy(cp.Maxima.Max, a.maxima.Max)
	if a.times != nil {
		cp.Times = append([]float64(nil), a.times[:a.merged]...)
	}
	if a.rounds != nil {
		cp.Rounds = append([]security.RoundOut(nil), a.rounds[:a.merged]...)
	}
	return cp
}

// restore rewinds the accumulator to a validated checkpoint's frontier.
// Must run before the first chunk is claimed (no lock needed: the
// accumulator is still private to its campaign).
func (a *campaignAccum) restore(cp *Checkpoint) {
	a.moments = cp.Moments
	a.sketch = cp.Sketch
	copy(a.maxima.Max, cp.Maxima.Max)
	a.levels = cp.Levels
	copy(a.window, cp.Window)
	a.merged = cp.Frontier
	a.lastCkpt = cp.Frontier
	a.badRun, a.badVal = cp.BadRun, cp.BadVal
	copy(a.times, cp.Times)
	copy(a.rounds, cp.Rounds)
}

// levelsTotal returns the merged per-level counters.
func (a *campaignAccum) levelsTotal() LevelStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.levels
}

// snapshotLocked builds the deterministic view of the merged prefix.
// Called with mu held; the pWCET fit runs at most once per chunk merge,
// far off the per-run path.
func (a *campaignAccum) snapshotLocked() Snapshot {
	s := Snapshot{
		Runs:       a.merged,
		Total:      a.total,
		AccumBytes: a.footprintLocked(),
	}
	if a.moments.N > 0 {
		s.Mean = a.moments.Mean()
		s.Min = a.moments.Min
		s.Max = a.moments.Max
		s.P50 = a.sketch.Quantile(0.50)
		s.P95 = a.sketch.Quantile(0.95)
		s.P99 = a.sketch.Quantile(0.99)
	}
	nb := a.merged / a.block
	if nb > len(a.maxima.Max) {
		nb = len(a.maxima.Max)
	}
	if nb >= 2 {
		if model, err := evt.AnalyzeMaxima(a.maxima.Max[:nb], a.block, a.merged); err == nil {
			s.Blocks = nb
			s.PWCET12 = model.AtExceedance(CutoffLow)
			s.PWCET15 = model.AtExceedance(CutoffHigh)
		}
	}
	return s
}

// footprintLocked estimates the resident accumulator bytes: the IID
// window, the central block maxima, and one sketch-sized accumulator per
// parked chunk plus the central one. O(iid.Window + total/block +
// workers), independent of the run count beyond the maxima vector.
func (a *campaignAccum) footprintLocked() int {
	return 8*(len(a.window)+len(a.maxima.Max)) + a.sketch.Footprint()*(1+len(a.pending))
}

// summary returns the merged aggregates (the frontier prefix; the whole
// campaign once it completed).
func (a *campaignAccum) summary() Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Summary{Moments: a.moments, Sketch: a.sketch}
}

// analysis computes the campaign's MBPTA analysis from the streaming
// accumulators: the admissibility tests on the iid.Window prefix, the EVT
// fit on the exact block maxima. It is the only code that computes an
// Analysis; the differential tests pin it bit-identical to the buffered
// pipeline over the whole vector, across campaign kinds and worker
// counts. Errors come in pipeline order: WW, KS, EVT, ET.
func (a *campaignAccum) analysis() (Analysis, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.badRun >= 0 {
		return Analysis{}, fmt.Errorf("core: invalid measurement: %w", &evt.InvalidTimeError{Index: a.badRun, Value: a.badVal})
	}
	var an Analysis
	dithered := ditherTies(a.window)
	ww, err := iid.WaldWolfowitz(dithered)
	if err != nil {
		return an, fmt.Errorf("core: WW test: %w", err)
	}
	ks, err := iid.KSSplit(dithered)
	if err != nil {
		return an, fmt.Errorf("core: KS test: %w", err)
	}
	model, err := evt.AnalyzeMaxima(a.maxima.Max, a.block, a.total)
	if err != nil {
		return an, fmt.Errorf("core: EVT fit: %w", err)
	}
	// ET examines the extreme tail under the peaks-over-threshold protocol:
	// search the threshold grid for an acceptable exponential tail, which
	// EVT guarantees exists when block maxima converge to a Gumbel law.
	et, err := iid.ETTestSearch(dithered, nil)
	if err != nil {
		return an, fmt.Errorf("core: ET test: %w", err)
	}
	an.WW, an.KS, an.ET, an.Model = ww, ks, et, model
	an.PWCET15 = model.AtExceedance(CutoffHigh)
	an.PWCET12 = model.AtExceedance(CutoffLow)
	an.IIDPass = ww.Pass && ks.Pass
	return an, nil
}
