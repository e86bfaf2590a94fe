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
// placements after the first run), then monomorphic-kernel array-lookup
// replay. The steady state must report 0 allocs/op: the first run's plan
// allocation happens in the warm-up before the timer.
func BenchmarkHotPathCompiled(b *testing.B) {
	for _, kind := range placement.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			p, ct := hotPathSetup(b, kind)
			p.Reseed(prng.Derive(0xBE7C4, 0))
			p.RunCompiled(ct) // warm-up: allocate the index plans
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Reseed(prng.Derive(0xBE7C4, i))
				p.RunCompiled(ct)
			}
			b.ReportMetric(float64(ct.Len()), "accesses/op")
		})
	}
}

// BenchmarkHotPathBaselineCompiled runs the deterministic HWM baseline
// protocol (per-run randomized layout, trace rebuilt and compiled every
// run) through the Engine. Unlike MBPTA there is no build-once
// amortization, so the per-run trace build dominates.
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
