package sim

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/trace"
)

// mixedTrace builds a trace with code, strided data, random data and
// stores — enough pressure that every level misses, evicts and (for the
// write-back L2) writes back.
func mixedTrace(seed uint64, n int) trace.Trace {
	g := prng.New(seed)
	b := trace.NewBuilder(n)
	for i := 0; i < n; i++ {
		switch g.Intn(4) {
		case 0:
			b.Fetch(0x40_0000 + g.Bits(15))
		case 1:
			b.Load(uint64(i*32) % (48 * 1024))
		case 2:
			b.Load(0x100_0000 + g.Bits(18))
		default:
			b.Store(0x200_0000 + g.Bits(17))
		}
	}
	return b.Trace()
}

// TestRunCompiledBitExact is the differential property test of the
// compiled execution path: for every placement kind × replacement policy
// × L1/L2 write-policy arrangement, RunCompiled must reproduce the
// per-access reference Run bit-for-bit — cycles, per-level
// hit/miss/eviction/writeback counters, and (via the shared RNG state)
// every subsequent run too.
func TestRunCompiledBitExact(t *testing.T) {
	type writeSetup struct {
		name    string
		l1Write cache.WritePolicy
		l1Alloc bool
		l2Write cache.WritePolicy
	}
	writes := []writeSetup{
		{"wt-noalloc/wb", cache.WriteThrough, false, cache.WriteBack},
		{"wt-alloc/wb", cache.WriteThrough, true, cache.WriteBack},
		{"wb/wt", cache.WriteBack, false, cache.WriteThrough},
		{"wb/wb", cache.WriteBack, false, cache.WriteBack},
		{"wt-noalloc/wt", cache.WriteThrough, false, cache.WriteThrough},
	}
	for _, pk := range placement.Kinds() {
		for _, rk := range []cache.ReplacementKind{cache.LRU, cache.Random, cache.FIFO, cache.PLRU} {
			for _, ws := range writes {
				cfg := paperConfig(pk)
				cfg.IL1.Replacement, cfg.DL1.Replacement, cfg.L2.Replacement = rk, rk, rk
				cfg.DL1.Write, cfg.DL1.AllocOnWrite = ws.l1Write, ws.l1Alloc
				cfg.L2.Write = ws.l2Write

				ref, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				compiled, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				tr := mixedTrace(0xD1FF, 30000)
				ct, err := trace.Compile(tr, cfg.IL1.LineBytes)
				if err != nil {
					t.Fatal(err)
				}
				for run := 0; run < 3; run++ {
					seed := prng.Derive(42, run)
					ref.Reseed(seed)
					compiled.Reseed(seed)
					want := ref.Run(tr)
					got := compiled.RunCompiled(ct)
					if got != want {
						t.Fatalf("%v/%v/%s run %d: compiled %+v, ref %+v",
							pk, rk, ws.name, run, got, want)
					}
				}
			}
		}
	}
}

// TestRunCompiledSharedAcrossCores checks the campaign usage pattern: one
// immutable Compiled replayed on several cores stays bit-exact for each.
func TestRunCompiledSharedAcrossCores(t *testing.T) {
	cfg := paperConfig(placement.RM)
	tr := mixedTrace(7, 20000)
	ct, err := trace.Compile(tr, cfg.IL1.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 3; core++ {
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seed := prng.Derive(9, core)
		ref.Reseed(seed)
		compiled.Reseed(seed)
		if got, want := compiled.RunCompiled(ct), ref.Run(tr); got != want {
			t.Fatalf("core %d: compiled %+v, ref %+v", core, got, want)
		}
	}
}

// TestRunCompiledPlanReuseDeterministic pins the deterministic-plan-reuse
// rule: on a hierarchy whose placements are all seed-invariant
// (Modulo/XORFold), repeat replays of the same Compiled skip the IndexAll
// rebuilds entirely after the first run — and stay bit-exact against the
// per-access reference across reseeds, which is what makes the skip legal.
func TestRunCompiledPlanReuseDeterministic(t *testing.T) {
	cfg := paperConfig(placement.Modulo)
	cfg.L2.Placement = placement.XORFold // fully deterministic hierarchy
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := mixedTrace(0xCAFE, 20000)
	ct, err := trace.Compile(tr, cfg.IL1.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 4; run++ {
		seed := prng.Derive(11, run)
		ref.Reseed(seed)
		compiled.Reseed(seed)
		if run == 1 {
			// Poison the plans after the first build: if the reuse rule
			// wrongly rebuilt them the poison would be repaired, and if it
			// wrongly kept them without this repair-check the replay would
			// diverge. Repair and verify the skip instead by checking
			// builtFor survives the reseed.
			if compiled.plan.builtFor != ct {
				t.Fatal("plan not retained for the same Compiled")
			}
		}
		if got, want := compiled.RunCompiled(ct), ref.Run(tr); got != want {
			t.Fatalf("run %d: compiled %+v, ref %+v", run, got, want)
		}
	}
}

// TestRunCompiledAlternatingTraces replays two different Compiled traces
// alternately on one core: every switch must rebuild the plans (even for
// deterministic placements) because the line tables differ.
func TestRunCompiledAlternatingTraces(t *testing.T) {
	cfg := paperConfig(placement.Modulo)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trA := mixedTrace(0xA, 15000)
	trB := mixedTrace(0xB, 12000)
	ctA, err := trace.Compile(trA, cfg.IL1.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	ctB, err := trace.Compile(trB, cfg.IL1.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 6; run++ {
		seed := prng.Derive(23, run)
		ref.Reseed(seed)
		compiled.Reseed(seed)
		tr, ct := trA, ctA
		if run%2 == 1 {
			tr, ct = trB, ctB
		}
		if got, want := compiled.RunCompiled(ct), ref.Run(tr); got != want {
			t.Fatalf("run %d: compiled %+v, ref %+v", run, got, want)
		}
	}
}

// TestRunCompiledRejectsLineSizeMismatch: the platform's levels share one
// line size (New rejects a mix), and both replay loops refuse a trace
// compiled for any other line size instead of replaying it wrongly.
func TestRunCompiledRejectsLineSizeMismatch(t *testing.T) {
	mixed := paperConfig(placement.RM)
	mixed.L2.LineBytes = 64
	mixed.L2.SizeBytes = 256 * 1024 // keeps the L2 geometry itself valid
	if _, err := New(mixed); err == nil || !strings.Contains(err.Error(), "line size") {
		t.Fatalf("New accepted mixed line sizes (err %v)", err)
	}
	if _, err := NewSystem(mixed, 2); err == nil {
		t.Fatal("NewSystem accepted mixed line sizes")
	}

	c, err := New(paperConfig(placement.RM))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := trace.Compile(mixedTrace(1, 10), 64)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: line-size mismatch not rejected", name)
			}
		}()
		f()
	}
	mustPanic("RunCompiled", func() { c.RunCompiled(ct) })
	sys, err := NewSystem(paperConfig(placement.RM), 2)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("RunAll", func() { sys.RunAll([]*trace.Compiled{nil, ct}) })
}

func BenchmarkRunCompiled(b *testing.B) {
	cfg := paperConfig(placement.RM)
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr := mixedTrace(3, 200000)
	ct, err := trace.Compile(tr, cfg.IL1.LineBytes)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reseed(prng.Derive(5, i))
		c.RunCompiled(ct)
	}
	b.ReportMetric(float64(len(tr)), "accesses/op")
}
