// Hot-path microbenchmarks: the per-run compiled replay loop per
// placement policy, plus end-to-end MBPTA and HWM-baseline campaigns
// through a one-worker Engine. CI runs these with -bench=HotPath
// -benchtime=1x as a smoke; run with a real -benchtime to measure.
package randmod

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// hotPathSetup builds the paper platform for an L1 placement kind and the
// trace of a representative EEMBC-like workload, both ready to replay.
func hotPathSetup(b *testing.B, kind placement.Kind) (*sim.Core, *trace.Compiled) {
	b.Helper()
	w, err := workload.ByName("tblook01")
	if err != nil {
		b.Fatal(err)
	}
	tr := w.Build(workload.DefaultLayout())
	spec := core.PlatformFor(kind)
	p, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	ct, err := trace.Compile(tr, spec.LineBytes)
	if err != nil {
		b.Fatal(err)
	}
	return p, ct
}

// BenchmarkHotPathCompiled measures the compiled replay: per run, index
// plans over the trace's unique lines (rebuilt only for randomized
// placements after the first run), then the way-hinted replay of the
// folded ops the run's mapping can make miss. It reports accesses/op and
// ops/op, whose ratio is the fold ratio, and replayed-ops/op, the mean
// number of ops a run replays after skipping its guaranteed L1 hits. The
// steady state must report 0 allocs/op: the first run's plan allocation
// happens in the warm-up before the timer.
func BenchmarkHotPathCompiled(b *testing.B) {
	for _, kind := range placement.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			p, ct := hotPathSetup(b, kind)
			p.Reseed(prng.Derive(0xBE7C4, 0))
			p.RunCompiled(ct) // warm-up: allocate the index plans
			b.ReportAllocs()
			b.ResetTimer()
			replayed := 0
			for i := 0; i < b.N; i++ {
				p.Reseed(prng.Derive(0xBE7C4, i))
				p.RunCompiled(ct)
				replayed += p.ReplayedOps()
			}
			b.ReportMetric(float64(ct.Len()), "accesses/op")
			b.ReportMetric(float64(len(ct.Ops)), "ops/op")
			b.ReportMetric(float64(replayed)/float64(b.N), "replayed-ops/op")
		})
	}
}

// BenchmarkHotPathKernels is BenchmarkHotPathCompiled per kernel of
// perfbench's twelve (the eleven EEMBC-like ones plus synth20k), on the
// RM paper platform the mbpta-rm workload replays them on: ns/op is one
// reseeded run, replayed-ops/op shows how many of the kernel's ops
// (ops/op) a run replays after skipping its certain L1 hits and the
// stores certain to hit the L2, replayed-stores/op how many of those
// are stores, misses/op the run's IL1 plus DL1 misses, which bound
// the reads it must replay, and evictions/op its IL1 plus DL1
// evictions: the fills that make the miss rule's fill hook pass the
// evicted line's hits and mark its next read.
func BenchmarkHotPathKernels(b *testing.B) {
	s20, err := workload.ByName("synth20k")
	if err != nil {
		b.Fatal(err)
	}
	spec := core.PlatformFor(placement.RM)
	for _, w := range append(workload.EEMBC(), s20) {
		b.Run(w.Name, func(b *testing.B) {
			p, err := spec.Build()
			if err != nil {
				b.Fatal(err)
			}
			ct, err := trace.Compile(w.Build(workload.DefaultLayout()), spec.LineBytes)
			if err != nil {
				b.Fatal(err)
			}
			p.Reseed(prng.Derive(0xBE7C4, 0))
			p.RunCompiled(ct) // warm-up: allocate the index plans
			b.ReportAllocs()
			b.ResetTimer()
			var replayed, stores, misses, evictions uint64
			for i := 0; i < b.N; i++ {
				p.Reseed(prng.Derive(0xBE7C4, i))
				r := p.RunCompiled(ct)
				replayed += uint64(p.ReplayedOps())
				stores += uint64(p.ReplayedStores())
				misses += r.IL1.Misses + r.DL1.Misses
				evictions += r.IL1.Evictions + r.DL1.Evictions
			}
			b.ReportMetric(float64(len(ct.Ops)), "ops/op")
			b.ReportMetric(float64(replayed)/float64(b.N), "replayed-ops/op")
			b.ReportMetric(float64(stores)/float64(b.N), "replayed-stores/op")
			b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
			b.ReportMetric(float64(evictions)/float64(b.N), "evictions/op")
		})
	}
}

// BenchmarkHotPathBaseline is BenchmarkHotPathKernels on the modulo+LRU
// baseline platform the baseline-hwm workload replays: per kernel of
// perfbench's twelve, compiled once in relocatable form and relocated to
// 32 randomized layouts before the timer, ns/op is one run at the next
// layout (its index plans rebuilt, as a baseline campaign's run rebuilds
// them), replayed-ops/op the ops a run replays of the kernel's ops/op,
// and replayed-stores/op the stores among them: its LRU DL1 skips the
// reads its layout makes certain hits, and the run the stores it makes
// certain at both levels. The steady state must report 0 allocs/op.
func BenchmarkHotPathBaseline(b *testing.B) {
	s20, err := workload.ByName("synth20k")
	if err != nil {
		b.Fatal(err)
	}
	spec := core.PlatformFor(placement.Modulo)
	base := workload.BaselineLayout()
	for _, w := range append(workload.EEMBC(), s20) {
		b.Run(w.Name, func(b *testing.B) {
			p, err := spec.Build()
			if err != nil {
				b.Fatal(err)
			}
			rel, err := w.Relocatable(base, spec.LineBytes)
			if err != nil {
				b.Fatal(err)
			}
			cts := make([]*trace.Compiled, 32)
			for i := range cts {
				cts[i] = rel.Relocate(workload.RandomizedLayoutFrom(base, prng.New(prng.Derive(0xBA5E, i))))
			}
			p.Reseed(0)
			p.RunCompiled(cts[0]) // warm-up: allocate the index plans
			b.ReportAllocs()
			b.ResetTimer()
			var replayed, stores uint64
			for i := 0; i < b.N; i++ {
				p.Reseed(uint64(i))
				p.RunCompiled(cts[i%len(cts)])
				replayed += uint64(p.ReplayedOps())
				stores += uint64(p.ReplayedStores())
			}
			b.ReportMetric(float64(len(cts[0].Ops)), "ops/op")
			b.ReportMetric(float64(replayed)/float64(b.N), "replayed-ops/op")
			b.ReportMetric(float64(stores)/float64(b.N), "replayed-stores/op")
		})
	}
}

// BenchmarkHotPathBaselineCompiled runs the deterministic HWM baseline
// protocol through the Engine: the trace builds and compiles once per
// campaign in relocatable form, and each run relocates its line tables
// to a freshly randomized layout before replaying it.
func BenchmarkHotPathBaselineCompiled(b *testing.B) {
	w, err := workload.ByName("tblook01")
	if err != nil {
		b.Fatal(err)
	}
	eng := core.NewEngine(core.WithWorkers(1))
	req := core.Request{
		Spec: core.PlatformFor(placement.Modulo), Workload: w,
		Runs: 10, MasterSeed: 0x9A9E6, Baseline: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathBaselineRound runs one round of perfbench's
// baseline-hwm workload through a one-worker Engine: a 32-run
// high-water-mark campaign on the modulo+LRU platform for each of its 12
// kernels (the eleven EEMBC-like ones plus synth20k), each compiled once
// in relocatable form. It reports runs/s, the workload's throughput
// metric.
func BenchmarkHotPathBaselineRound(b *testing.B) {
	s20, err := workload.ByName("synth20k")
	if err != nil {
		b.Fatal(err)
	}
	ws := append(workload.EEMBC(), s20)
	eng := core.NewEngine(core.WithWorkers(1))
	spec := core.PlatformFor(placement.Modulo)
	const runs = 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, w := range ws {
			req := core.Request{
				Spec: spec, Workload: w, Runs: runs, MasterSeed: uint64(k),
				Baseline: true, KeepTimes: core.TimesDrop,
			}
			if _, err := eng.Run(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N*len(ws)*runs)/b.Elapsed().Seconds(), "runs/s")
}

// BenchmarkHotPathCampaignCompiled runs a 40-run MBPTA campaign through
// the Engine with workers pinned to 1, so it measures the hot loop plus
// the campaign's streaming overhead without parallelism.
func BenchmarkHotPathCampaignCompiled(b *testing.B) {
	w, err := workload.ByName("tblook01")
	if err != nil {
		b.Fatal(err)
	}
	eng := core.NewEngine(core.WithWorkers(1))
	req := core.Request{
		Spec: core.PlatformFor(placement.RM), Workload: w,
		Runs: 40, MasterSeed: 0x9A9E6,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(req.Runs*res.Trace.Accesses), "accesses/op")
	}
}
