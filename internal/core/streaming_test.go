package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/evt"
	"repro/internal/iid"
	"repro/internal/placement"
	"repro/internal/security"
	"repro/internal/stats"
	"repro/internal/workload"
)

func mustWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// sameSummary compares the exact parts of two Summaries: count, sum,
// extremes and the full sketch. The Welford variance term is grouping-
// dependent in its last ulps and deliberately outside the bit-identity
// contract, so it is not compared.
func sameSummary(a, b Summary) bool {
	return a.Moments.N == b.Moments.N &&
		a.Moments.Sum == b.Moments.Sum &&
		a.Moments.Min == b.Moments.Min &&
		a.Moments.Max == b.Moments.Max &&
		a.Sketch == b.Sketch
}

// bufferedAnalysis is the MBPTA pipeline over a whole buffered vector:
// validate it, reduce it to block maxima, run the admissibility tests on
// its iid.Window prefix and fit the maxima. It is the differential oracle
// of campaignAccum.analysis, the one production path, and reports errors
// in the same pipeline order (WW, KS, EVT, ET).
func bufferedAnalysis(times []float64) (Analysis, error) {
	var an Analysis
	if err := evt.ValidateTimes(times); err != nil {
		return an, fmt.Errorf("core: invalid measurement: %w", err)
	}
	block := evt.BlockFor(len(times))
	maxima, merr := evt.BlockMaxima(times, block)
	dithered := ditherTies(times[:min(len(times), iid.Window)])
	ww, err := iid.WaldWolfowitz(dithered)
	if err != nil {
		return an, fmt.Errorf("core: WW test: %w", err)
	}
	ks, err := iid.KSSplit(dithered)
	if err != nil {
		return an, fmt.Errorf("core: KS test: %w", err)
	}
	if merr != nil {
		return an, fmt.Errorf("core: EVT fit: %w", merr)
	}
	model, err := evt.AnalyzeMaxima(maxima, block, len(times))
	if err != nil {
		return an, fmt.Errorf("core: EVT fit: %w", err)
	}
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

// TestStreamingMatchesBufferedAnalysis pins the tentpole contract: for
// every timing-campaign kind and worker counts {1, 4, GOMAXPROCS}, the
// engine's streaming analysis is bit-identical to the buffered pipeline
// over res.Times, and the streaming Summary reproduces the batch
// statistics of the buffered vector exactly.
func TestStreamingMatchesBufferedAnalysis(t *testing.T) {
	cases := []struct {
		name string
		req  Request
	}{
		{"mbpta-rm", Request{Spec: PaperPlatform(placement.RM), Runs: 120, MasterSeed: 7, Analyze: true}},
		{"mbpta-hrp", Request{Spec: PaperPlatform(placement.HRP), Runs: 120, MasterSeed: 9, Analyze: true}},
		// tblook01's layout-randomized baseline has enough tail variance for
		// the Gumbel fit to accept its block maxima at this scale.
		{"baseline-hwm", Request{Spec: DeterministicPlatform(), Runs: 60, MasterSeed: 11, Baseline: true, Analyze: true}},
	}
	cases[0].req.Workload = mustWorkload(t, "tblook01")
	cases[1].req.Workload = mustWorkload(t, "puwmod01")
	cases[2].req.Workload = mustWorkload(t, "tblook01")

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref Result
			for wi, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				eng := NewEngine(WithWorkers(workers))
				res, err := eng.Run(context.Background(), tc.req)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if res.Analysis == nil {
					t.Fatalf("workers=%d: no analysis", workers)
				}
				// Streaming vs buffered: same vector, same verdicts, bitwise.
				buffered, err := bufferedAnalysis(res.Times)
				if err != nil {
					t.Fatalf("workers=%d: buffered analysis: %v", workers, err)
				}
				if *res.Analysis != buffered {
					t.Fatalf("workers=%d: streaming analysis %+v differs from buffered %+v",
						workers, *res.Analysis, buffered)
				}
				// Summary vs the buffered vector's batch statistics.
				if res.Summary.Moments.N != int64(len(res.Times)) {
					t.Fatalf("workers=%d: summary N=%d, runs=%d", workers, res.Summary.Moments.N, len(res.Times))
				}
				if res.HWM() != stats.Max(res.Times) || res.Mean() != stats.Mean(res.Times) {
					t.Fatalf("workers=%d: summary HWM/Mean diverge from batch", workers)
				}
				var batch Summary
				for _, x := range res.Times {
					batch.Moments.Add(x)
					batch.Sketch.Add(x)
				}
				if !sameSummary(res.Summary, batch) {
					t.Fatalf("workers=%d: merged summary differs from batch-filled summary", workers)
				}
				// Across worker counts everything must agree bitwise.
				if wi == 0 {
					ref = res
					continue
				}
				for i := range res.Times {
					if res.Times[i] != ref.Times[i] {
						t.Fatalf("workers=%d: Times[%d] differs from workers=1", workers, i)
					}
				}
				if *res.Analysis != *ref.Analysis {
					t.Fatalf("workers=%d: analysis differs from workers=1", workers)
				}
				if !sameSummary(res.Summary, ref.Summary) {
					t.Fatalf("workers=%d: summary differs from workers=1", workers)
				}
			}
		})
	}
}

// TestKeepTimesDrop: dropping the measurement vector changes nothing but
// Times — analysis, summary and the derived HWM/Mean stay bit-identical.
func TestKeepTimesDrop(t *testing.T) {
	req := Request{
		Spec: PaperPlatform(placement.RM), Workload: mustWorkload(t, "tblook01"),
		Runs: 120, MasterSeed: 7, Analyze: true,
	}
	eng := NewEngine(WithWorkers(4))
	keep, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.KeepTimes = TimesDrop
	drop, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if drop.Times != nil {
		t.Fatalf("TimesDrop left a %d-entry vector", len(drop.Times))
	}
	if !sameSummary(keep.Summary, drop.Summary) {
		t.Fatal("summary differs between keep and drop")
	}
	if *keep.Analysis != *drop.Analysis {
		t.Fatal("analysis differs between keep and drop")
	}
	if drop.HWM() != keep.HWM() || drop.Mean() != keep.Mean() {
		t.Fatal("HWM/Mean differ between keep and drop")
	}
	if drop.Levels != keep.Levels {
		t.Fatal("level counters differ between keep and drop")
	}
}

// TestKeepTimesDropSecurity: the security family honours the knob too —
// Times vanishes while the summary and the attack aggregate are unchanged.
func TestKeepTimesDropSecurity(t *testing.T) {
	req := secRequest(security.EvictionSet, 24)
	eng := NewEngine(WithWorkers(2))
	keep, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.KeepTimes = TimesDrop
	drop, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if drop.Times != nil {
		t.Fatalf("TimesDrop left a %d-entry vector", len(drop.Times))
	}
	if !sameSummary(keep.Summary, drop.Summary) {
		t.Fatal("summary differs between keep and drop")
	}
	if drop.Security == nil || keep.Security == nil {
		t.Fatal("missing security aggregate")
	}
	if drop.HWM() != keep.HWM() || drop.Mean() != keep.Mean() {
		t.Fatal("HWM/Mean differ between keep and drop")
	}
}

// TestSnapshotDeterminism: every snapshot the engine emits is the pure
// function of its covered prefix — recomputing the same prefix through a
// fresh accumulator reproduces it field for field — and snapshots arrive
// with strictly increasing coverage.
func TestSnapshotDeterminism(t *testing.T) {
	req := Request{
		Spec: PaperPlatform(placement.RM), Workload: mustWorkload(t, "tblook01"),
		Runs: 160, MasterSeed: 13,
	}
	var mu sync.Mutex
	var snaps []Snapshot
	eng := NewEngine(WithWorkers(4), WithEvents(func(ev Event) {
		if ev.Kind == SnapshotTaken && ev.Snapshot != nil {
			mu.Lock()
			snaps = append(snaps, *ev.Snapshot)
			mu.Unlock()
		}
	}))
	res, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots emitted")
	}
	last := snaps[len(snaps)-1]
	if last.Runs != req.Runs {
		t.Fatalf("final snapshot covers %d runs, want %d", last.Runs, req.Runs)
	}
	if last.Mean != res.Mean() || last.Max != res.HWM() {
		t.Fatal("final snapshot disagrees with the result aggregates")
	}
	prev := 0
	for _, s := range snaps {
		if s.Runs <= prev {
			t.Fatalf("snapshot coverage not increasing: %d after %d", s.Runs, prev)
		}
		prev = s.Runs
		if s.Total != req.Runs {
			t.Fatalf("snapshot Total = %d, want %d", s.Total, req.Runs)
		}
		// Recompute the same prefix through a fresh accumulator.
		acc := newCampaignAccum(req.Runs)
		ca := acc.newChunk(0, s.Runs)
		for run := 0; run < s.Runs; run++ {
			x := res.Times[run]
			if run < len(acc.window) {
				acc.window[run] = x
			}
			ca.add(run, x)
		}
		acc.commit(ca)
		acc.mu.Lock()
		want := acc.snapshotLocked()
		acc.mu.Unlock()
		// AccumBytes depends on transient pending-chunk occupancy, not on
		// the data; everything else must reproduce exactly.
		s.AccumBytes, want.AccumBytes = 0, 0
		if s != want {
			t.Fatalf("snapshot at %d runs %+v != recomputed %+v", s.Runs, s, want)
		}
	}
}

// TestAnalyzeRejectsInvalidTimes: Analyze, the buffered pipeline and
// chunked streaming accumulators reject NaN/Inf/negative measurements
// with the typed error, reporting the lowest offending index.
func TestAnalyzeRejectsInvalidTimes(t *testing.T) {
	base := make([]float64, 60)
	for i := range base {
		base[i] = float64(1000 + i%7)
	}
	for _, tc := range []struct {
		name string
		val  float64
	}{
		{"nan", math.NaN()},
		{"posinf", math.Inf(1)},
		{"neginf", math.Inf(-1)},
		{"negative", -4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			times := append([]float64(nil), base...)
			times[17] = tc.val
			times[41] = tc.val // a later offender must not win
			_, err := Analyze(times)
			var ite *evt.InvalidTimeError
			if !errors.As(err, &ite) {
				t.Fatalf("Analyze error = %v, want *evt.InvalidTimeError", err)
			}
			if ite.Index != 17 {
				t.Fatalf("reported index %d, want 17 (lowest)", ite.Index)
			}
			if _, berr := bufferedAnalysis(times); berr == nil || berr.Error() != err.Error() {
				t.Fatalf("Analyze error %q, buffered pipeline %v", err, berr)
			}

			// Streaming path: same verdict through the accumulators, even
			// when the offenders land in different chunks.
			acc := newCampaignAccum(len(times))
			mid := 30
			ca1, ca2 := acc.newChunk(0, mid), acc.newChunk(mid, len(times))
			for run, x := range times {
				if run < len(acc.window) {
					acc.window[run] = x
				}
				if run < mid {
					ca1.add(run, x)
				} else {
					ca2.add(run, x)
				}
			}
			acc.commit(ca2) // out-of-order commit exercises the frontier
			acc.commit(ca1)
			_, err = acc.analysis()
			ite = nil
			if !errors.As(err, &ite) {
				t.Fatalf("streaming analysis error = %v, want *evt.InvalidTimeError", err)
			}
			if ite.Index != 17 {
				t.Fatalf("streaming reported index %d, want 17", ite.Index)
			}
		})
	}
	if _, err := Analyze(base); err != nil {
		t.Fatalf("valid times rejected: %v", err)
	}
}

// TestStreamingAllocsIndependentOfRuns pins the O(1)-in-runs memory
// claim: with KeepTimes=TimesDrop, the allocation count of a campaign
// does not grow with its run count (beyond the fixed IID window and the
// per-chunk accumulators).
func TestStreamingAllocsIndependentOfRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation profile run")
	}
	w := workload.Synthetic(2048, 1, 4) // tiny trace: allocation noise dominates runs, not replay
	campaign := func(runs int) float64 {
		eng := NewEngine(WithWorkers(1))
		return testing.AllocsPerRun(1, func() {
			_, err := eng.Run(context.Background(), Request{
				Spec: DeterministicPlatform(), Workload: w,
				Runs: runs, MasterSeed: 3, KeepTimes: TimesDrop,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	small := campaign(2000)
	large := campaign(8000)
	// 4x the runs must not mean 4x the allocations: everything per-run is
	// amortized into per-chunk accumulators. Allow fixed slack for the
	// runtime's background noise.
	if large > small+64 {
		t.Fatalf("allocations grew with campaign size: %0.f allocs at 2000 runs, %0.f at 8000", small, large)
	}
}

// BenchmarkStreamingCampaign measures a drop-times campaign end to end;
// b.ReportAllocs makes the O(1)-in-runs allocation profile visible
// (allocs/op stays flat as -benchtime or the runs constant grows).
func BenchmarkStreamingCampaign(b *testing.B) {
	w := workload.Synthetic(2048, 1, 4)
	eng := NewEngine(WithWorkers(1))
	req := Request{
		Spec: DeterministicPlatform(), Workload: w,
		Runs: 4000, MasterSeed: 3, KeepTimes: TimesDrop,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}
