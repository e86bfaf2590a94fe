package core

import (
	"context"
	"errors"
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
// and returns the reference Times and Levels the Runner must reproduce
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

// sequentialBaseline replays the HWM protocol the same way (per-run
// randomized layout, compiled and replayed on one platform).
func sequentialBaseline(t *testing.T, spec PlatformSpec, w workload.Workload, runs int, seed uint64) []float64 {
	t.Helper()
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, runs)
	for run := 0; run < runs; run++ {
		s := prng.Derive(seed^hwmSeedTag, run)
		layout := workload.RandomizedLayout(prng.New(s))
		ct, err := trace.Compile(w.Build(layout), spec.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		p.Reseed(s)
		times[run] = float64(p.RunCompiled(ct).Cycles)
	}
	return times
}

// engineWriteArrangements are the write setups the engine-level
// differential test applies to the store-visible levels (DL1 and L2):
// the platform default (write-through no-allocate DL1, write-back L2)
// plus the two inversions that bind every other write kernel.
var engineWriteArrangements = []struct {
	name string
	dl1  WriteSetup
	l2   WriteSetup
}{
	{"default", WriteDefault, WriteDefault},
	{"wta/wb", WriteThroughAlloc, WriteBackAlloc},
	{"wb/wt", WriteBackAlloc, WriteThroughNoAlloc},
}

// TestEngineRunMatchesLegacyHotLoop is the engine-level differential
// test: for every placement kind, every replacement policy and every
// write arrangement, Engine.Run at workers 1 and 4 must reproduce a
// sequential RunCompiled loop bit-for-bit — same Times, same summed
// per-level Stats — for both MBPTA and baseline protocols. What it pins
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
			for _, wa := range engineWriteArrangements {
				spec := PaperPlatform(pk)
				spec.IL1.Replacement, spec.DL1.Replacement, spec.L2.Replacement = rk, rk, rk
				spec.DL1.Write, spec.L2.Write = wa.dl1, wa.l2
				seed := uint64(0xBEEF) ^ uint64(pk)<<8 ^ uint64(rk) ^ uint64(wa.dl1)<<16
				wantTimes, wantLevels := sequentialCampaign(t, spec, w, runs, seed)
				wantBase := sequentialBaseline(t, spec, w, runs, seed)

				for _, workers := range []int{1, 4} {
					eng := NewEngine(WithWorkers(workers))
					res, err := eng.Run(context.Background(), Request{
						Spec: spec, Workload: w, Runs: runs, MasterSeed: seed,
					})
					if err != nil {
						t.Fatalf("%v/%v/%s workers=%d: %v", pk, rk, wa.name, workers, err)
					}
					for i := range wantTimes {
						if res.Times[i] != wantTimes[i] {
							t.Fatalf("%v/%v/%s workers=%d: Times[%d] = %v, sequential loop %v",
								pk, rk, wa.name, workers, i, res.Times[i], wantTimes[i])
						}
					}
					if res.Levels != wantLevels {
						t.Fatalf("%v/%v/%s workers=%d: Levels = %+v, sequential %+v",
							pk, rk, wa.name, workers, res.Levels, wantLevels)
					}

					base, err := eng.Run(context.Background(), Request{
						Spec: spec, Workload: w, Runs: runs, MasterSeed: seed, Baseline: true,
					})
					if err != nil {
						t.Fatalf("%v/%v/%s workers=%d baseline: %v", pk, rk, wa.name, workers, err)
					}
					for i := range wantBase {
						if base.Times[i] != wantBase[i] {
							t.Fatalf("%v/%v/%s workers=%d: baseline Times[%d] = %v, sequential %v",
								pk, rk, wa.name, workers, i, base.Times[i], wantBase[i])
						}
					}
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

// TestBuildAppliesWriteSetup pins the WriteSetup-to-cache.Config mapping.
func TestBuildAppliesWriteSetup(t *testing.T) {
	spec := PaperPlatform(placement.RM)
	spec.DL1.Write = WriteBackAlloc
	spec.L2.Write = WriteThroughAlloc
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, dl1, l2 := p.Caches()
	if cfg := dl1.Config(); cfg.Write != cache.WriteBack {
		t.Fatalf("DL1 write = %v, want write-back", cfg.Write)
	}
	if cfg := l2.Config(); cfg.Write != cache.WriteThrough || !cfg.AllocOnWrite {
		t.Fatalf("L2 = %v alloc=%v, want write-through allocate", cfg.Write, cfg.AllocOnWrite)
	}
	// The default arrangement is unchanged by the zero value.
	def, err := PaperPlatform(placement.RM).Build()
	if err != nil {
		t.Fatal(err)
	}
	_, ddl1, dl2 := def.Caches()
	if ddl1.Config().Write != cache.WriteThrough || ddl1.Config().AllocOnWrite {
		t.Fatal("default DL1 arrangement changed")
	}
	if dl2.Config().Write != cache.WriteBack {
		t.Fatal("default L2 arrangement changed")
	}
}
