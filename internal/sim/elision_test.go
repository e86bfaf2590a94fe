package sim

import (
	"math/bits"
	"testing"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// elisionConfig is a Modulo hierarchy with 8-set 2-way L1s and 64-byte
// lines, so line L sits in L1 set L%8 under every seed.
func elisionConfig(rk cache.ReplacementKind, write cache.WritePolicy) Config {
	mk := func(name string, size, ways int, w cache.WritePolicy) cache.Config {
		return cache.Config{
			Name: name, SizeBytes: size, Ways: ways, LineBytes: 64,
			Placement: placement.Modulo, Replacement: rk, Write: w,
		}
	}
	return Config{
		IL1: mk("IL1", 1024, 2, cache.WriteThrough),
		DL1: mk("DL1", 1024, 2, write),
		L2:  mk("L2", 2048, 4, cache.WriteBack),
	}
}

// dataTrace builds a data-only trace over 64-byte lines: access i stores
// to lines[i] where store[i] is 's' and loads it otherwise.
func dataTrace(lines []uint64, store string) trace.Trace {
	b := trace.NewBuilder(len(lines))
	for i, l := range lines {
		if i < len(store) && store[i] == 's' {
			b.Store(l * 64)
		} else {
			b.Load(l * 64)
		}
	}
	return b.Trace()
}

// TestElisionEligibility pins when RunCompiled may skip a read: the
// per-kind set limits (Random 1 allocating line, FIFO and LRU Ways, PLRU
// none), no skipping on a stored-to level that allocates on write
// (write-back), stores never counting as allocating, the cold-only rule
// (no skipping on a warm level, even where the limit would allow it),
// LRU state restored exactly on either L1, and aliased relocated IDs
// counting as two lines. Every replay must also equal the per-access
// reference, Result and cache state.
func TestElisionEligibility(t *testing.T) {
	t.Run("limits", func(t *testing.T) {
		wt, wb := cache.WriteThrough, cache.WriteBack
		for _, tc := range []struct {
			rk     cache.ReplacementKind
			write  cache.WritePolicy
			stores bool
			want   int
		}{
			{cache.Random, wt, true, 1},
			{cache.FIFO, wt, true, 2},
			{cache.LRU, wt, false, 2},
			{cache.LRU, wt, true, 2}, // a write-through store miss ticks too
			{cache.LRU, wb, true, 0},
			{cache.LRU, wb, false, 2},
			{cache.Random, wb, true, 0}, // a store fills a write-back level
			{cache.FIFO, wb, true, 0},
			{cache.PLRU, wt, false, 0},
		} {
			c, err := New(elisionConfig(tc.rk, tc.write))
			if err != nil {
				t.Fatal(err)
			}
			_, dl1, _ := c.Caches()
			if got := dl1.HitElisionLimit(tc.stores); got != tc.want {
				t.Fatalf("%+v: fresh level limit %d, want %d", tc, got, tc.want)
			}
			c.RunCompiled(compile(t, dataTrace([]uint64{0}, "")))
			if got := dl1.HitElisionLimit(tc.stores); got != 0 {
				t.Fatalf("%+v: warm level limit %d, want 0", tc, got)
			}
			c.Flush()
			if got := dl1.HitElisionLimit(tc.stores); got != tc.want {
				t.Fatalf("%+v: flushed level limit %d, want %d", tc, got, tc.want)
			}
			c.RunCompiled(compile(t, dataTrace([]uint64{0}, "")))
			c.Reseed(1)
			if got := dl1.HitElisionLimit(tc.stores); got != tc.want {
				t.Fatalf("%+v: reseeded level limit %d, want %d", tc, got, tc.want)
			}
		}
	})

	// Lines 0, 8 and 16 share DL1 set 0; line 1 sits alone in set 1.
	alone := []uint64{0, 1, 0, 1, 0}
	shared := []uint64{0, 8, 0, 8, 0}
	three := []uint64{0, 8, 16, 0, 8, 16, 0}
	const storeOnly = ".s.s." // line 8 only stored between loads of line 0
	wt, wb := cache.WriteThrough, cache.WriteBack
	for _, tc := range []struct {
		name  string
		rk    cache.ReplacementKind
		write cache.WritePolicy
		lines []uint64
		store string
		want  int // ops replayed by the cold run
	}{
		{"random/alone", cache.Random, wt, alone, "", 2},
		{"random/shared", cache.Random, wt, shared, "", 5},
		{"fifo/alone", cache.FIFO, wt, alone, "", 2},
		{"fifo/shared", cache.FIFO, wt, shared, "", 2},
		{"fifo/three", cache.FIFO, wt, three, "", 7},
		// A data L1 is stored-to, so a write-back one replays its whole
		// stream; a write-through LRU one skips like FIFO.
		{"lru/alone-noalloc", cache.LRU, wt, alone, "", 2},
		{"lru/alone", cache.LRU, wb, alone, "", 5},
		{"lru/shared", cache.LRU, wb, shared, "", 5},
		{"lru/three", cache.LRU, wb, three, "", 7},
		{"lru/store-alloc", cache.LRU, wb, shared, storeOnly, 5},
		{"lru/store-noalloc", cache.LRU, wt, shared, storeOnly, 3},
		{"plru/alone", cache.PLRU, wt, alone, "", 5},
		{"random/store-noalloc", cache.Random, wt, shared, storeOnly, 3},
		{"random/store-writeback", cache.Random, wb, shared, storeOnly, 5},
		{"fifo/store-alloc", cache.FIFO, wb, shared, storeOnly, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := elisionConfig(tc.rk, tc.write)
			tr := dataTrace(tc.lines, tc.store)
			ct := compile(t, tr)
			core, ref := mustNew(t, cfg), mustNew(t, cfg)
			for run := 0; run < 3; run++ {
				want := tc.want
				if run == 2 {
					want = len(ct.Ops) // warm: no Reseed
				} else {
					core.Reseed(prng.Derive(9, run))
					ref.Reseed(prng.Derive(9, run))
				}
				if got, w := core.RunCompiled(ct), ref.Run(tr); got != w {
					t.Fatalf("run %d: compiled %+v, reference %+v", run, got, w)
				}
				sameCacheState(t, core, ref)
				if got := core.ReplayedOps(); got != want {
					t.Fatalf("run %d replayed %d of %d ops, want %d", run, got, len(ct.Ops), want)
				}
			}
		})
	}

	// The instruction stream never stores, so an LRU IL1 skips its
	// certain hits on any write arrangement; the restored stamps and
	// tick must decide a later warm run's victims exactly as replayed
	// hits would: line 0 is fetched last, so the warm fetch of line 16
	// evicts line 8, and the refetch of line 0 hits.
	t.Run("lru/fetch", func(t *testing.T) {
		cfg := elisionConfig(cache.LRU, wt)
		b := trace.NewBuilder(8)
		for _, l := range []uint64{0, 1, 8, 1, 0, 1, 8, 0} {
			b.Fetch(l * 64)
		}
		first := b.Trace()
		ct := compile(t, first)
		core, ref := mustNew(t, cfg), mustNew(t, cfg)
		core.Reseed(2)
		ref.Reseed(2)
		if got, want := core.RunCompiled(ct), ref.Run(first); got != want {
			t.Fatalf("compiled %+v, reference %+v", got, want)
		}
		sameCacheState(t, core, ref)
		if got := core.ReplayedOps(); got != 3 {
			t.Fatalf("replayed %d of %d ops, want 3", got, len(ct.Ops))
		}
		b = trace.NewBuilder(2)
		b.Fetch(16 * 64)
		b.Fetch(0)
		second := b.Trace()
		got, want := core.RunCompiled(compile(t, second)), ref.Run(second)
		if got != want || want.IL1.Hits != 1 {
			t.Fatalf("warm replay %+v, reference %+v (want 1 IL1 hit)", got, want)
		}
		sameCacheState(t, core, ref)
	})

	// The data stream stores, and a write-through LRU DL1 still skips
	// its certain hits: a store to line 24 misses between the loads and
	// ticks. Line 0 is loaded last of set 0, so the warm load of line 16
	// evicts line 8, and the load of line 8 then evicts line 0 only if
	// the restored tick lies past line 0's restored stamp; line 16 then
	// hits.
	t.Run("lru/load", func(t *testing.T) {
		cfg := elisionConfig(cache.LRU, wt)
		first := dataTrace([]uint64{0, 1, 8, 24, 1, 0, 1}, "...s...")
		ct := compile(t, first)
		core, ref := mustNew(t, cfg), mustNew(t, cfg)
		core.Reseed(6)
		ref.Reseed(6)
		if got, want := core.RunCompiled(ct), ref.Run(first); got != want {
			t.Fatalf("compiled %+v, reference %+v", got, want)
		}
		sameCacheState(t, core, ref)
		if got := core.ReplayedOps(); got != 4 {
			t.Fatalf("replayed %d of %d ops, want 4", got, len(ct.Ops))
		}
		second := dataTrace([]uint64{16, 8, 16}, "")
		got, want := core.RunCompiled(compile(t, second)), ref.Run(second)
		if got != want || want.DL1.Hits != 1 {
			t.Fatalf("warm replay %+v, reference %+v (want 1 DL1 hit)", got, want)
		}
		sameCacheState(t, core, ref)
	})

	// Two relocated IDs on one line under LRU: the line's stamp is its
	// last access over both IDs, here by the ID numbered first.
	t.Run("lru/aliased", func(t *testing.T) {
		cfg := elisionConfig(cache.LRU, wt)
		b := trace.NewBuilder(3)
		for _, a := range []uint64{0, 32, 0} {
			b.Fetch(a)
		}
		tr := b.Trace()
		rel, err := workload.FromTrace("aliased", "", tr).Relocatable(workload.BaselineLayout(), 64)
		if err != nil {
			t.Fatal(err)
		}
		ct := rel.Relocate(workload.BaselineLayout())
		core, ref := mustNew(t, cfg), mustNew(t, cfg)
		core.Reseed(4)
		ref.Reseed(4)
		if got, want := core.RunCompiled(ct), ref.Run(tr); got != want {
			t.Fatalf("compiled %+v, reference %+v", got, want)
		}
		sameCacheState(t, core, ref)
		if got := core.ReplayedOps(); got != 2 {
			t.Fatalf("replayed %d of %d ops, want 2", got, len(ct.Ops))
		}
	})

	// A warm FIFO level must replay in full: line 0 survives the first
	// trace as the older line of set 0, the second trace's fill of line
	// 16 evicts it, and its later read misses, although the second trace
	// puts only two lines in the set.
	t.Run("fifo/warm", func(t *testing.T) {
		cfg := elisionConfig(cache.FIFO, wt)
		core, ref := mustNew(t, cfg), mustNew(t, cfg)
		first := dataTrace([]uint64{0, 8}, "")
		second := dataTrace([]uint64{0, 16, 0}, "")
		core.RunCompiled(compile(t, first))
		ref.Run(first)
		got, want := core.RunCompiled(compile(t, second)), ref.Run(second)
		if got != want || want.DL1.Misses != 2 {
			t.Fatalf("warm replay %+v, reference %+v (want 2 DL1 misses)", got, want)
		}
	})

	// A Compiled without an Index replays every op.
	t.Run("no-index", func(t *testing.T) {
		cfg := elisionConfig(cache.Random, wt)
		tr := dataTrace(alone, "")
		ct := *compile(t, tr)
		ct.Index = nil
		core, ref := mustNew(t, cfg), mustNew(t, cfg)
		core.Reseed(5)
		ref.Reseed(5)
		if got, want := core.RunCompiled(&ct), ref.Run(tr); got != want {
			t.Fatalf("compiled %+v, reference %+v", got, want)
		}
		if got := core.ReplayedOps(); got != len(ct.Ops) {
			t.Fatalf("replayed %d of %d ops", got, len(ct.Ops))
		}
	})

	// The relocated form numbers 32-byte granules, so the two halves of
	// line 0 get two IDs in one set: elision counts them as two
	// allocating lines and keeps their later reads, where the plain
	// compile (one ID) skips them.
	t.Run("aliased", func(t *testing.T) {
		cfg := elisionConfig(cache.Random, wt)
		b := trace.NewBuilder(7)
		for _, a := range []uint64{0, 64, 32, 64, 0, 64, 32} {
			b.Load(a)
		}
		tr := b.Trace()
		rel, err := workload.FromTrace("aliased", "", tr).Relocatable(workload.BaselineLayout(), 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			ct   *trace.Compiled
			want int
		}{{"compiled", compile(t, tr), 2}, {"relocated", rel.Relocate(workload.BaselineLayout()), 5}} {
			core, ref := mustNew(t, cfg), mustNew(t, cfg)
			core.Reseed(3)
			ref.Reseed(3)
			if got, want := core.RunCompiled(tc.ct), ref.Run(tr); got != want {
				t.Fatalf("%s: compiled %+v, reference %+v", tc.name, got, want)
			}
			if got := core.ReplayedOps(); got != tc.want {
				t.Fatalf("%s replayed %d of %d ops, want %d", tc.name, got, len(tc.ct.Ops), tc.want)
			}
		}
	})
}

func compile(t *testing.T, tr trace.Trace) *trace.Compiled {
	t.Helper()
	ct, err := trace.Compile(tr, 64)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func mustNew(t *testing.T, cfg Config) *Core {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBaselineElisionMatchesPerAccess is the differential test of hit
// elision on the modulo+LRU baseline (core.PlatformFor(placement.Modulo):
// paperConfig's modulo+LRU L1s over a modulo+LRU L2), whose write-through
// DL1 skips its certain hits and restores its LRU stamps like the IL1:
// perfbench's twelve kernels, relocated to several randomized layouts as
// a baseline campaign relocates them, must replay through the skipping
// RunCompiled exactly as the per-access Core.Run serves the trace rebuilt
// at that layout, in Result and in every level's state. The runs must
// also skip data reads, or the DL1 restore went untested.
func TestBaselineElisionMatchesPerAccess(t *testing.T) {
	cfg := paperConfig(placement.Modulo)
	cfg.L2.Placement, cfg.L2.Replacement = placement.Modulo, cache.LRU
	s20, err := workload.ByName("synth20k")
	if err != nil {
		t.Fatal(err)
	}
	core, ref := mustNew(t, cfg), mustNew(t, cfg)
	base := workload.BaselineLayout()
	var replayed, dataOps int
	for _, w := range append(workload.EEMBC(), s20) {
		rel, err := w.Relocatable(base, cfg.DL1.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			seed := prng.Derive(0xB45E, i)
			layout := workload.RandomizedLayoutFrom(base, prng.New(seed))
			ct := rel.Relocate(layout)
			core.Reseed(seed)
			ref.Reseed(seed)
			if got, want := core.RunCompiled(ct), ref.Run(w.Build(layout)); got != want {
				t.Fatalf("%s layout %d: compiled %+v, per-access %+v", w.Name, i, got, want)
			}
			sameCacheState(t, core, ref)
			replayed += core.ReplayedOps()
			// An IL1-only skip replays at least every op outside the
			// instruction stream's later reads.
			dataOps += len(ct.Ops)
			for _, m := range ct.Index.Tables().I.All {
				dataOps -= bits.OnesCount64(m)
			}
		}
	}
	if replayed >= dataOps {
		t.Fatalf("replayed %d ops, no fewer than the %d outside the instruction stream's later reads", replayed, dataOps)
	}
}
