package core

import (
	"context"
	"errors"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sequentialCampaign replays the MBPTA protocol in the plainest possible
// loop — sequentially, one platform, one Compiled, RunCompiled per run —
// and returns the reference Times and Levels the Engine must reproduce
// bit-for-bit through its sharding, seeding and streaming accumulation.
func sequentialCampaign(t *testing.T, spec PlatformSpec, w workload.Workload, runs int, seed uint64) ([]float64, LevelStats) {
	t.Helper()
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := trace.Compile(w.Build(workload.DefaultLayout()), spec.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, runs)
	var levels LevelStats
	for run := 0; run < runs; run++ {
		p.Reseed(prng.Derive(seed, run))
		r := p.RunCompiled(ct)
		times[run] = float64(r.Cycles)
		levels.add(r)
	}
	return times, levels
}

// sequentialBaseline replays the HWM protocol the plainest way: per run,
// draw the randomized layout around base (RandomizedLayout when nil),
// rebuild and compile the trace at it, and replay on one platform. It is
// the reference the engine's build-once relocation must reproduce.
func sequentialBaseline(t *testing.T, spec PlatformSpec, w workload.Workload, runs int, seed uint64, base *workload.Layout) ([]float64, LevelStats) {
	t.Helper()
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, runs)
	var levels LevelStats
	for run := 0; run < runs; run++ {
		s := prng.Derive(seed^hwmSeedTag, run)
		layout := workload.RandomizedLayout(prng.New(s))
		if base != nil {
			layout = workload.RandomizedLayoutFrom(*base, prng.New(s))
		}
		ct, err := trace.Compile(w.Build(layout), spec.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		p.Reseed(s)
		r := p.RunCompiled(ct)
		times[run] = float64(r.Cycles)
		levels.add(r)
	}
	return times, levels
}

// TestBaselineRelocationMatchesRebuild is the differential test of the
// baseline's build-once relocation: Engine.Run must reproduce the per-run
// rebuild bit-for-bit, Times and Levels, for every workload plus a
// captured trace, lines of 16 to 128 bytes, a deterministic and a
// randomized platform, the default base and an unaligned base whose Data
// and Table objects overlap — and for a base near 2^64 whose addresses
// wrap.
func TestBaselineRelocationMatchesRebuild(t *testing.T) {
	overlap := workload.BaselineLayout()
	overlap.Data += 4
	overlap.Table = overlap.Data + 0x404
	overlap.Scatter[1] = 20
	wrap := workload.BaselineLayout()
	wrap.Code, wrap.Stack = ^uint64(0)-100, 2
	a2, err := workload.ByName("a2time01")
	if err != nil {
		t.Fatal(err)
	}
	ws := append(workload.All(), workload.FromTrace("captured", "", a2.Build(workload.DefaultLayout())))
	platforms := []PlatformSpec{DeterministicPlatform(), PaperPlatform(placement.RM)}
	eng := NewEngine(WithWorkers(2))
	check := func(w workload.Workload, spec PlatformSpec, base *workload.Layout) {
		t.Helper()
		const runs = 3
		seed := uint64(spec.LineBytes)<<8 ^ uint64(len(w.Name))
		wantTimes, wantLevels := sequentialBaseline(t, spec, w, runs, seed, base)
		res, err := eng.Run(context.Background(), Request{
			Spec: spec, Workload: w, Runs: runs, MasterSeed: seed, Layout: base, Baseline: true,
		})
		if err != nil {
			t.Fatalf("%s %v/%dB: %v", w.Name, spec.IL1.Placement, spec.LineBytes, err)
		}
		for i := range wantTimes {
			if res.Times[i] != wantTimes[i] {
				t.Fatalf("%s %v/%dB base %v: Times[%d] = %v, rebuild %v",
					w.Name, spec.IL1.Placement, spec.LineBytes, base, i, res.Times[i], wantTimes[i])
			}
		}
		if res.Levels != wantLevels {
			t.Fatalf("%s %v/%dB base %v: Levels = %+v, rebuild %+v",
				w.Name, spec.IL1.Placement, spec.LineBytes, base, res.Levels, wantLevels)
		}
	}
	for _, w := range ws {
		if testing.Short() && w.Name == "synth160k" {
			continue
		}
		for _, lb := range []int{16, 32, 64, 128} {
			for _, spec := range platforms {
				spec.LineBytes = lb
				for _, base := range []*workload.Layout{nil, &overlap} {
					check(w, spec, base)
				}
			}
		}
	}
	for _, w := range workload.EEMBC() {
		for _, spec := range platforms {
			spec.LineBytes = 64
			check(w, spec, &wrap)
		}
	}
}

// TestBaselineRejectsLayoutDependentWorkload: a workload that breaks the
// Build contract (here its trace length depends on l.Code) fails a
// baseline campaign at the start with a *workload.RelocationError — no
// run completes, nothing panics, and the one CampaignFinished carries
// the error.
func TestBaselineRejectsLayoutDependentWorkload(t *testing.T) {
	w := workload.Workload{
		Name: "layout-dependent",
		Build: func(l workload.Layout) trace.Trace {
			tr := make(trace.Trace, 64+bits.OnesCount64(l.Code))
			for i := range tr {
				tr[i] = trace.Access{Addr: l.Data + uint64(4*i), Kind: trace.Load}
			}
			return tr
		},
	}
	var runs, finished int
	var finErr error
	eng := NewEngine(WithWorkers(2), WithEvents(func(ev Event) {
		switch ev.Kind {
		case RunCompleted:
			runs++
		case CampaignFinished:
			finished++
			finErr = ev.Err
		}
	}))
	_, err := eng.Run(context.Background(), Request{
		Spec: DeterministicPlatform(), Workload: w, Runs: 8, MasterSeed: 1, Baseline: true,
	})
	var re *workload.RelocationError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want a *workload.RelocationError", err)
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		t.Fatalf("rejection surfaced as a panic: %v", err)
	}
	if runs != 0 || finished != 1 || finErr == nil {
		t.Fatalf("%d RunCompleted, %d CampaignFinished (err %v); want 0 and one carrying the error",
			runs, finished, finErr)
	}
	// The same workload is fine for MBPTA, which builds at one layout.
	if _, err := eng.Run(context.Background(), Request{
		Spec: DeterministicPlatform(), Workload: w, Runs: 2, MasterSeed: 1,
	}); err != nil {
		t.Fatalf("MBPTA campaign over the same workload: %v", err)
	}
}

// TestEngineRunMatchesLegacyHotLoop is the engine-level differential
// test: for every placement kind and every replacement policy, Engine.Run
// at workers 1 and 4 must reproduce a sequential RunCompiled loop
// bit-for-bit — same Times, same summed per-level Stats — for both MBPTA
// and baseline protocols. What it pins
// is the engine's sharding, per-run seeding and accumulation; the replay
// itself is pinned against the per-access reference models by the sim
// and cache tests.
func TestEngineRunMatchesLegacyHotLoop(t *testing.T) {
	w, err := workload.ByName("bitmnp01")
	if err != nil {
		t.Fatal(err)
	}
	const runs = 12
	for _, pk := range placement.Kinds() {
		for _, rk := range []cache.ReplacementKind{cache.LRU, cache.Random, cache.FIFO, cache.PLRU} {
			spec := PaperPlatform(pk)
			spec.IL1.Replacement, spec.DL1.Replacement, spec.L2.Replacement = rk, rk, rk
			seed := uint64(0xBEEF) ^ uint64(pk)<<8 ^ uint64(rk)
			wantTimes, wantLevels := sequentialCampaign(t, spec, w, runs, seed)
			wantBase, wantBaseLevels := sequentialBaseline(t, spec, w, runs, seed, nil)

			for _, workers := range []int{1, 4} {
				eng := NewEngine(WithWorkers(workers))
				res, err := eng.Run(context.Background(), Request{
					Spec: spec, Workload: w, Runs: runs, MasterSeed: seed,
				})
				if err != nil {
					t.Fatalf("%v/%v workers=%d: %v", pk, rk, workers, err)
				}
				for i := range wantTimes {
					if res.Times[i] != wantTimes[i] {
						t.Fatalf("%v/%v workers=%d: Times[%d] = %v, sequential loop %v",
							pk, rk, workers, i, res.Times[i], wantTimes[i])
					}
				}
				if res.Levels != wantLevels {
					t.Fatalf("%v/%v workers=%d: Levels = %+v, sequential %+v",
						pk, rk, workers, res.Levels, wantLevels)
				}

				base, err := eng.Run(context.Background(), Request{
					Spec: spec, Workload: w, Runs: runs, MasterSeed: seed, Baseline: true,
				})
				if err != nil {
					t.Fatalf("%v/%v workers=%d baseline: %v", pk, rk, workers, err)
				}
				for i := range wantBase {
					if base.Times[i] != wantBase[i] {
						t.Fatalf("%v/%v workers=%d: baseline Times[%d] = %v, sequential %v",
							pk, rk, workers, i, base.Times[i], wantBase[i])
					}
				}
				if base.Levels != wantBaseLevels {
					t.Fatalf("%v/%v workers=%d: baseline Levels = %+v, sequential %+v",
						pk, rk, workers, base.Levels, wantBaseLevels)
				}
			}
		}
	}
}

// TestEngineRejectsUnsupportedLineSize: compiled replay is the only
// replay path, so a line size it cannot number (24B is not a power of
// two) fails the campaign with a wrapped error instead of switching
// paths — for MBPTA and baseline requests alike, before any run
// completes, without a worker panic, and with the one CampaignFinished
// event carrying the error.
func TestEngineRejectsUnsupportedLineSize(t *testing.T) {
	w, err := workload.ByName("rspeed01")
	if err != nil {
		t.Fatal(err)
	}
	for _, baseline := range []bool{false, true} {
		spec := PaperPlatform(placement.RM)
		spec.LineBytes = 24
		var runs, finished int
		var finErr error
		eng := NewEngine(WithWorkers(2), WithEvents(func(ev Event) {
			switch ev.Kind {
			case RunCompleted:
				runs++
			case CampaignFinished:
				finished++
				finErr = ev.Err
			}
		}))
		_, err := eng.Run(context.Background(), Request{
			Spec: spec, Workload: w, Runs: 8, MasterSeed: 1, Baseline: baseline,
		})
		if err == nil {
			t.Fatalf("baseline=%v: 24B lines accepted", baseline)
		}
		if errors.Unwrap(err) == nil {
			t.Errorf("baseline=%v: error %q does not wrap its cause", baseline, err)
		}
		var pe *PanicError
		if errors.As(err, &pe) {
			t.Errorf("baseline=%v: rejection surfaced as a worker panic: %v", baseline, err)
		}
		if !strings.Contains(err.Error(), "line size") {
			t.Errorf("baseline=%v: error %q does not name the line size", baseline, err)
		}
		if runs != 0 {
			t.Errorf("baseline=%v: %d RunCompleted events for a rejected campaign", baseline, runs)
		}
		if finished != 1 || finErr == nil {
			t.Errorf("baseline=%v: %d CampaignFinished events (err %v), want one carrying the error",
				baseline, finished, finErr)
		}
	}
}

// TestBuildAppliesWriteSetup pins the platform's write arrangement, the
// paper's safety-critical design point: write-through L1s that do not
// allocate on a store miss and a write-back L2, on both platforms.
func TestBuildAppliesWriteSetup(t *testing.T) {
	for _, spec := range []PlatformSpec{PaperPlatform(placement.RM), DeterministicPlatform()} {
		p, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		il1, dl1, l2 := p.Caches()
		for _, c := range []*cache.Cache{il1, dl1} {
			if c.AllocatesOnWrite() || c.Config().Write != cache.WriteThrough {
				t.Fatalf("%s: %v, want write-through no-allocate", c.Config().Name, c.Config().Write)
			}
		}
		if !l2.AllocatesOnWrite() || l2.Config().Write != cache.WriteBack {
			t.Fatalf("L2: %v, want write-back", l2.Config().Write)
		}
	}
}

// TestSettledElisionMatchesFullReplay replays perfbench's twelve kernels
// on the RM paper platform, whose Random L1s replay only the reads that
// miss and whose write-back Random L2 lets a run skip the stores it must
// hit, at BenchmarkHotPathKernels' 20 seeds (prng.Derive(0xBE7C4,
// i)), and holds every Result to a replay of the same ops that keeps
// every op (a Compiled without an Index). Some run of each kernel must
// skip stores. A round is one run of each kernel at one seed, and no
// round may replay more than maxStores stores or maxOps ops: that
// catches a change that keeps the Results but silently narrows what
// store and hit elision skip.
func TestSettledElisionMatchesFullReplay(t *testing.T) {
	const maxStores, maxOps = 4000, 23000
	s20, err := workload.ByName("synth20k")
	if err != nil {
		t.Fatal(err)
	}
	spec := PlatformFor(placement.RM)
	elided, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	full, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	var stores, ops [20]int
	for _, w := range append(workload.EEMBC(), s20) {
		ct, err := trace.Compile(w.Build(workload.DefaultLayout()), spec.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		all := *ct
		all.Index = nil
		skipped := 0
		for i := range stores {
			seed := prng.Derive(0xBE7C4, i)
			elided.Reseed(seed)
			full.Reseed(seed)
			if got, want := elided.RunCompiled(ct), full.RunCompiled(&all); got != want {
				t.Fatalf("%s seed %d: elided %+v, full replay %+v", w.Name, i, got, want)
			}
			if full.ReplayedOps() != len(ct.Ops) {
				t.Fatalf("%s: the full replay replayed %d of %d ops", w.Name, full.ReplayedOps(), len(ct.Ops))
			}
			skipped += full.ReplayedStores() - elided.ReplayedStores()
			stores[i] += elided.ReplayedStores()
			ops[i] += elided.ReplayedOps()
		}
		if skipped == 0 {
			t.Fatalf("%s: no run skipped a store", w.Name)
		}
	}
	for i := range stores {
		if stores[i] > maxStores || ops[i] > maxOps {
			t.Errorf("round %d replayed %d stores and %d ops, over the budget of %d and %d", i, stores[i], ops[i], maxStores, maxOps)
		}
	}
	t.Logf("replayed stores per round %v, ops %v", stores, ops)
}

// TestBaselineStoreElisionMatchesFullReplay replays perfbench's twelve
// kernels on the modulo+LRU DeterministicPlatform, each relocated at
// rounds fixed seeds as a baseline campaign relocates it, and holds every
// Result to a replay of the same ops that keeps every op (a Compiled
// without an Index). Its LRU DL1 skips reads by occupancy and classifies
// the accesses of its over-full sets by one LRU pass, so a run skips
// their hits, the misses whose L2 hit is certain, and the middle stores
// of the data lines whose L2 set its layout makes certain: some run of
// some kernel must skip stores, and no round (one run of each kernel at
// one seed) may replay more than maxStores stores or maxOps ops, which
// catches a change that keeps the Results but silently narrows what the
// rules skip.
func TestBaselineStoreElisionMatchesFullReplay(t *testing.T) {
	const rounds, maxStores, maxOps = 8, 7500, 11500
	s20, err := workload.ByName("synth20k")
	if err != nil {
		t.Fatal(err)
	}
	spec := DeterministicPlatform()
	elided, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	full, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	base := workload.BaselineLayout()
	var stores, ops [rounds]int
	skipped, total := 0, 0
	for _, w := range append(workload.EEMBC(), s20) {
		rel, err := w.Relocatable(base, spec.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		for i := range stores {
			seed := prng.Derive(0xB45E, i)
			ct := rel.Relocate(workload.RandomizedLayoutFrom(base, prng.New(seed)))
			all := *ct
			all.Index = nil
			elided.Reseed(seed)
			full.Reseed(seed)
			if got, want := elided.RunCompiled(ct), full.RunCompiled(&all); got != want {
				t.Fatalf("%s seed %d: elided %+v, full replay %+v", w.Name, i, got, want)
			}
			skipped += full.ReplayedStores() - elided.ReplayedStores()
			total += full.ReplayedStores()
			stores[i] += elided.ReplayedStores()
			ops[i] += elided.ReplayedOps()
		}
	}
	if skipped == 0 {
		t.Fatal("no run skipped a store")
	}
	for i := range stores {
		if stores[i] > maxStores || ops[i] > maxOps {
			t.Errorf("round %d replayed %d stores and %d ops, over the budget of %d and %d", i, stores[i], ops[i], maxStores, maxOps)
		}
	}
	t.Logf("replayed stores per round %v of %d, ops %v", stores, total/rounds, ops)
}
