package sim

import (
	"math/bits"
	"slices"
	"strings"
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

// dataTrace builds a trace over 64-byte lines: access i stores to
// lines[i] where kinds[i] is 's', fetches it where it is 'f' and loads it
// otherwise.
func dataTrace(lines []uint64, kinds string) trace.Trace {
	b := trace.NewBuilder(len(lines))
	for i, l := range lines {
		k := byte('.')
		if i < len(kinds) {
			k = kinds[i]
		}
		switch k {
		case 's':
			b.Store(l * 64)
		case 'f':
			b.Fetch(l * 64)
		default:
			b.Load(l * 64)
		}
	}
	return b.Trace()
}

// byRule marks a case whose replayed-op or skipped-store count depends
// on the seed: the count ruleReplayed derives.
const byRule = -1

// ruleReplayed returns the number of ops of ct, and of stores among
// them, that a run on cfg at seed replays by the elision rules, found
// without the replay's marks: it serves every op through fresh levels'
// slow paths (an op's folded reps are hits and change nothing). A limit
// of 0, a warm level or a nil Index replays a stream's every read. On a
// cold L1 under the miss rule (Random or FIFO, a nonzero limit) it counts
// the reads that miss in the reference L1; on a cold LRU IL1, each line's
// first read and the later reads of lines in sets with more allocating
// lines than the limit; on a cold LRU DL1 (the LRU classification), each
// line's first read and the reads of such sets that miss in the
// reference DL1 where the line's L2 set is uncertain or the miss is the
// line's first or last L2 access (its stores and read misses). It counts
// every store, but under a DL1 under the miss rule and a write-back
// Random or FIFO L2 the stores to a data line that has stayed resident in
// the L2 since its previous store, and under a classified DL1 and a cold
// write-back L2 with a nonzero limit the stores of a data line but its
// first and last, if the line's L2 set holds at most the L2's limit of
// line IDs of either stream. An L2 set is certain under that last
// arrangement alone.
func ruleReplayed(t *testing.T, cfg Config, seed uint64, ct *trace.Compiled) (ops, stores int) {
	t.Helper()
	c := mustNew(t, cfg)
	c.Reseed(seed)
	if ct.Index == nil {
		for _, op := range ct.Ops {
			if op.Kind == trace.Store {
				stores++
			}
		}
		return len(ct.Ops), stores
	}
	type stream struct {
		l1    *cache.Cache
		lines []uint64
		lim   int
		miss  bool
		k     map[uint32]int // per set: allocating lines
		read  map[uint32]bool
	}
	stateless := func(rk cache.ReplacementKind) bool { return rk == cache.Random || rk == cache.FIFO }
	streams := [2]*stream{
		{l1: c.il1, lines: ct.ILines, lim: c.il1.HitElisionLimit(false)},
		{l1: c.dl1, lines: ct.DLines, lim: c.dl1.HitElisionLimit(true)},
	}
	streams[0].miss = streams[0].lim > 0 && stateless(cfg.IL1.Replacement)
	streams[1].miss = streams[1].lim > 0 && stateless(cfg.DL1.Replacement)
	classified := streams[1].lim > 0 && cfg.DL1.Replacement == cache.LRU
	skipStores := streams[1].miss && cfg.L2.Write == cache.WriteBack && stateless(cfg.L2.Replacement)
	// resident holds the data lines stored to that have stayed in the L2
	// since their last store.
	resident := map[uint32]bool{}
	for s, st := range streams {
		st.k, st.read = map[uint32]int{}, map[uint32]bool{}
		seen := map[uint32]bool{}
		for _, op := range ct.Ops {
			if (op.Kind == trace.Fetch) == (s == 0) && op.Kind != trace.Store && !seen[op.ID] {
				seen[op.ID] = true
				st.k[st.l1.Policy().Index(st.lines[op.ID])]++
			}
		}
	}
	// certain holds the stores the certainty rule skips, and certainL2 the
	// data lines whose L2 set it makes certain.
	certain, certainL2 := map[int]bool{}, map[uint32]bool{}
	if l2Lim := c.l2.HitElisionLimit(false); classified && cfg.L2.Write == cache.WriteBack && l2Lim > 0 {
		l2k := map[uint32]int{}
		for _, la := range append(slices.Clone(ct.ILines), ct.DLines...) {
			l2k[c.l2.Policy().Index(la)]++
		}
		at := map[uint32][]int{}
		for i, op := range ct.Ops {
			if op.Kind == trace.Store {
				at[op.ID] = append(at[op.ID], i)
			}
		}
		for id, la := range ct.DLines {
			certainL2[uint32(id)] = l2k[c.l2.Policy().Index(la)] <= l2Lim
		}
		for id, at := range at {
			if certainL2[id] && len(at) > 2 {
				for _, i := range at[1 : len(at)-1] {
					certain[i] = true
				}
			}
		}
	}
	// The classified reads that miss, and per data line the ops that reach
	// the L2.
	var misses []int
	l2Ops := map[uint32][]int{}
	n := 0
	for i, op := range ct.Ops {
		st := streams[1]
		if op.Kind == trace.Fetch {
			st = streams[0]
		}
		la := st.lines[op.ID]
		set, l2set := st.l1.Policy().Index(la), c.l2.Policy().Index(la)
		if op.Kind == trace.Store {
			if !(skipStores && resident[op.ID]) && !certain[i] {
				n++
				stores++
			}
			st.l1.Write(la, set)
			c.l2.Write(la, l2set)
			resident[op.ID] = true
			l2Ops[op.ID] = append(l2Ops[op.ID], i)
		} else {
			b, _ := st.l1.Read(la, set)
			switch {
			case classified && op.Kind == trace.Load && st.k[set] > st.lim:
				if b&cache.BitHit == 0 {
					misses = append(misses, i)
				}
			case !st.read[op.ID] || st.lim == 0:
				n++
			case st.miss:
				if b&cache.BitHit == 0 {
					n++
				}
			case st.k[set] > st.lim:
				n++
			}
			st.read[op.ID] = true
			if b&cache.BitHit == 0 {
				c.l2.Read(la, l2set)
				if op.Kind == trace.Load {
					l2Ops[op.ID] = append(l2Ops[op.ID], i)
				}
			}
		}
		for id := range resident {
			if la := ct.DLines[id]; !c.l2.LookupLine(la, c.l2.Policy().Index(la)) {
				delete(resident, id)
			}
		}
	}
	for _, i := range misses {
		id := ct.Ops[i].ID
		if l2 := l2Ops[id]; !certainL2[id] || i == l2[0] || i == l2[len(l2)-1] {
			n++
		}
	}
	return n, stores
}

// TestElisionEligibility pins when RunCompiled may skip a read: the
// per-kind set limits (Random 1 allocating line, FIFO and LRU Ways, PLRU
// none), no skipping on a stored-to level that allocates on write
// (write-back), stores never counting as allocating, the cold-only rule
// (no skipping on a warm level, even where the limit would allow it),
// LRU state restored exactly on either L1, and a relocation that would
// give one line two IDs rebuilt instead. A Random set of two lines
// replays the reads that miss, which depends on the seed: random/shared expects what
// ruleReplayed counts, and every other case's count must agree with it.
// Every replay must also equal the per-access reference, Result and
// cache state.
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
		{"random/shared", cache.Random, wt, shared, "", byRule},
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
		{"random/store-noalloc", cache.Random, wt, shared, storeOnly, 2},
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
					if rule, _ := ruleReplayed(t, cfg, prng.Derive(9, run), ct); want == byRule {
						want = rule
					} else if rule != want {
						t.Fatalf("run %d: the rule replays %d ops, the case says %d", run, rule, want)
					}
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

	// Relocation numbers 32-byte granules, so fetches of both halves of
	// line 0 would give it two IDs under LRU: Relocate rebuilds, and the
	// one ID's reads fold into one op.
	t.Run("lru/aliased", func(t *testing.T) {
		cfg := elisionConfig(cache.LRU, wt)
		b := trace.NewBuilder(3)
		for _, a := range []uint64{0, 32, 0} {
			b.Fetch(a)
		}
		tr := b.Trace()
		ct := relocated(t, tr)
		core, ref := mustNew(t, cfg), mustNew(t, cfg)
		core.Reseed(4)
		ref.Reseed(4)
		if got, want := core.RunCompiled(ct), ref.Run(tr); got != want {
			t.Fatalf("compiled %+v, reference %+v", got, want)
		}
		sameCacheState(t, core, ref)
		if got := core.ReplayedOps(); got != 1 {
			t.Fatalf("replayed %d of %d ops, want 1", got, len(ct.Ops))
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

	// Loads of both halves of line 0 would give it two IDs in one set of
	// the relocated form: Relocate rebuilds, so each run replays the two
	// lines' first reads, as the compiled form does.
	t.Run("aliased", func(t *testing.T) {
		cfg := elisionConfig(cache.Random, wt)
		b := trace.NewBuilder(7)
		for _, a := range []uint64{0, 64, 32, 64, 0, 64, 32} {
			b.Load(a)
		}
		tr := b.Trace()
		ct := relocated(t, tr)
		core, ref := mustNew(t, cfg), mustNew(t, cfg)
		core.Reseed(3)
		ref.Reseed(3)
		if got, want := core.RunCompiled(ct), ref.Run(tr); got != want {
			t.Fatalf("compiled %+v, reference %+v", got, want)
		}
		if got := core.ReplayedOps(); got != 2 {
			t.Fatalf("replayed %d of %d ops, want 2", got, len(ct.Ops))
		}
	})
}

// relocated relocates tr, captured as a workload, at 64-byte lines to
// the baseline layout. Relocation numbers 32-byte granules, so where tr
// touches both granules of a line two IDs would share it and Relocate
// rebuilds: relocated fails t unless the result is tr's compiled form.
func relocated(t *testing.T, tr trace.Trace) *trace.Compiled {
	t.Helper()
	rel, err := workload.FromTrace("relocated", "", tr).Relocatable(workload.BaselineLayout(), 64)
	if err != nil {
		t.Fatal(err)
	}
	ct := rel.Relocate(workload.BaselineLayout())
	if !sameCompiled(ct, compile(t, tr)) {
		t.Fatal("the relocated trace is not the compiled one")
	}
	return ct
}

// sameCompiled reports whether a and b have the same ops, line tables,
// access count and line size.
func sameCompiled(a, b *trace.Compiled) bool {
	return slices.Equal(a.Ops, b.Ops) && slices.Equal(a.ILines, b.ILines) && slices.Equal(a.DLines, b.DLines) &&
		a.Accesses == b.Accesses && a.LineBytes == b.LineBytes
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
			for _, m := range ct.Index.I.All {
				dataOps -= bits.OnesCount64(m)
			}
		}
	}
	if replayed >= dataOps {
		t.Fatalf("replayed %d ops, no fewer than the %d outside the instruction stream's later reads", replayed, dataOps)
	}
}

// readCase is a trace of one line per read, run by runReadCases through
// the IL1 (as fetches) and the DL1 (as loads) of cfg.
type readCase struct {
	name  string
	cfg   Config
	lines []uint64
	// outcome reports whether a run whose L1 ended with stats l1 and
	// that replayed n ops shows what the case is about; some seed must
	// show it.
	outcome func(l1 cache.Stats, n int) bool
}

// runReadCases runs each case over 64 seeds on one core, so a run's
// marks and cursors must not leak into the next, each run checked by
// checkElidedRun against ruleReplayed and the per-access reference, then
// once warm, which must replay every op.
func runReadCases(t *testing.T, cases []readCase) {
	for _, tc := range cases {
		for _, kind := range []trace.Kind{trace.Fetch, trace.Load} {
			t.Run(tc.name+"/"+kind.String(), func(t *testing.T) {
				lb := uint64(tc.cfg.IL1.LineBytes)
				b := trace.NewBuilder(len(tc.lines))
				for _, l := range tc.lines {
					b.Append(trace.Access{Addr: l * lb, Kind: kind})
				}
				tr := b.Trace()
				ct, err := trace.Compile(tr, int(lb))
				if err != nil {
					t.Fatal(err)
				}
				seen := false
				core, ref := mustNew(t, tc.cfg), mustNew(t, tc.cfg)
				l1 := core.dl1
				if kind == trace.Fetch {
					l1 = core.il1
				}
				for seed := 0; seed < 64; seed++ {
					n := checkElidedRun(t, tc.cfg, core, ref, prng.Derive(0x5E77, seed), ct, tr)
					seen = seen || tc.outcome(l1.End(), n)
				}
				if !seen {
					t.Fatalf("no seed shows the case's outcome")
				}
				if got, want := core.RunCompiled(ct), ref.Run(tr); got != want {
					t.Fatalf("warm: compiled %+v, reference %+v", got, want)
				}
				sameCacheState(t, core, ref)
				if core.ReplayedOps() != len(ct.Ops) {
					t.Fatalf("warm run replayed %d of %d ops", core.ReplayedOps(), len(ct.Ops))
				}
			})
		}
	}
}

// alternate returns n reads alternating between the given lines.
func alternate(n int, lines ...uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = lines[i%len(lines)]
	}
	return out
}

// fourWay is the paper's geometry (128-set 4-way L1s) on Modulo with
// Random L1s: lines 0, 128, 256, ... share L1 set 0.
func fourWay() Config {
	cfg := paperConfig(placement.Modulo)
	cfg.IL1.Replacement, cfg.DL1.Replacement = cache.Random, cache.Random
	return cfg
}

// TestMissOnlyReplay pins the miss rule: on a cold Random or FIFO L1, a
// run replays a stream's first reads and the reads of lines a fill has
// evicted since their previous read, which the eviction marks, and skips
// every other read, whatever the number of lines in the set.
func TestMissOnlyReplay(t *testing.T) {
	random, fifo := elisionConfig(cache.Random, cache.WriteThrough), elisionConfig(cache.FIFO, cache.WriteThrough)
	var later []uint64 // line 0's next read 100 ops after line 8's fill
	later = append(append(append(later, 0, 8), alternate(100, 1, 2)...), 0)
	runReadCases(t, []readCase{
		// A cyclic sweep of Ways+1 lines of one Random set, synth20k's
		// shape: some reads hit and are skipped, so a run replays fewer
		// ops than reads, and some miss and are replayed.
		{"cyclic", fourWay(), alternate(200, 0, 128, 256, 384, 512), func(_ cache.Stats, n int) bool { return n > 5 && n < 200 }},
		// Three lines over a 2-way FIFO set: the refill of line 0 evicts
		// line 8, whose next read misses, while line 0's read between the
		// fills of lines 8 and 16 hits.
		{"fifo-over-ways", fifo, alternate(40, 0, 8, 0, 16), func(_ cache.Stats, n int) bool { return n > 3 && n < 40 }},
		// Line 8's fill evicts line 0 and marks its next read one op on,
		// in the block the loop is walking.
		{"current-block", random, alternate(40, 0, 8), func(_ cache.Stats, n int) bool { return n > 2 }},
		// Line 8's fill evicts line 0 and marks its next read in a later
		// block; lines 1 and 2 sit alone in their sets.
		{"later-block", random, later, func(_ cache.Stats, n int) bool { return n == 5 }},
		// Line 8's fill evicts line 0, which is never read again.
		{"never-again", random, []uint64{0, 8, 1, 2, 1, 2}, func(l1 cache.Stats, n int) bool { return l1.Evictions == 1 && n == 4 }},
	})
}

// TestSettledSetElision pins the miss rule on a Random set of 2..Ways
// lines, which settles: once all its lines are resident no fill reaches
// it, so a run replays none of their later reads. The cases run as
// TestMissOnlyReplay's do. A relocation that would give one line two IDs
// is rebuilt and takes the miss rule too.
func TestSettledSetElision(t *testing.T) {
	// Lines 0 and 8 share set 0 of elisionConfig's 2-way L1s; line 1
	// sits alone in set 1, so its later reads hit and keep the others
	// from folding.
	long := append(alternate(1<<14+200, 0, 1), alternate(600, 8, 1, 0, 1)...)
	early := append([]uint64{0, 1, 8, 1}, alternate(1<<14+200, 0, 1, 8, 1)...)
	stop := append(alternate(4, 0, 8), alternate(100, 1, 2)...)
	random := elisionConfig(cache.Random, cache.WriteThrough)
	runReadCases(t, []readCase{
		// Two lines: a seed whose second fill takes the free way settles
		// the set at once, a seed whose fills keep evicting each other
		// replays every op.
		{"settles", random, alternate(4, 0, 8), func(_ cache.Stats, n int) bool { return n == 2 }},
		{"unsettled", random, alternate(4, 0, 8), func(_ cache.Stats, n int) bool { return n == 4 }},
		// The set settles inside the first 64-op block, with later reads
		// of it left in the block.
		{"mid-block", random, alternate(200, 0, 8), func(_ cache.Stats, n int) bool { return n > 2 && n < 60 }},
		// Line 8 first appears after 8,292 reads of line 0, which all hit.
		{"late-segment", random, long, func(_ cache.Stats, n int) bool { return n < 1<<13+120 }},
		// The set settles early in a long trace.
		{"early-segment", random, early, func(_ cache.Stats, n int) bool { return n < 100 }},
		// The set's lines stop being read before it settles.
		{"stops", random, stop, func(_ cache.Stats, n int) bool { return n == 6 }},
		// Three lines in one set of a 4-way L1.
		{"three-of-four", fourWay(), alternate(300, 0, 128, 256, 1), func(_ cache.Stats, n int) bool { return n > 4 && n < 150 }},
	})

	// Relocation would number the two 32-byte granules of line 0 as two
	// IDs in one set: Relocate rebuilds, and lines 0 and 1, alone in their
	// sets, replay their first reads alone, on either L1.
	for _, kind := range []trace.Kind{trace.Fetch, trace.Load} {
		t.Run("aliased/"+kind.String(), func(t *testing.T) {
			cfg := elisionConfig(cache.Random, cache.WriteThrough)
			b := trace.NewBuilder(7)
			for _, a := range []uint64{0, 64, 32, 64, 0, 64, 32} {
				b.Append(trace.Access{Addr: a, Kind: kind})
			}
			tr := b.Trace()
			ct := relocated(t, tr)
			core, ref := mustNew(t, cfg), mustNew(t, cfg)
			for seed := 0; seed < 8; seed++ {
				if n := checkElidedRun(t, cfg, core, ref, prng.Derive(0xA11A5, seed), ct, tr); n != 2 {
					t.Fatalf("seed %d replayed %d of %d ops, want 2", seed, n, len(ct.Ops))
				}
			}
		})
	}
}

// checkElidedRun reseeds core and ref with seed, replays ct on core and
// tr on ref, fails t unless Results and cache states agree and core
// replayed the ops and the stores ruleReplayed counts, the ops being
// those its final keep mask holds, and returns the op count.
func checkElidedRun(t *testing.T, cfg Config, core, ref *Core, seed uint64, ct *trace.Compiled, tr trace.Trace) int {
	t.Helper()
	core.Reseed(seed)
	ref.Reseed(seed)
	if got, want := core.RunCompiled(ct), ref.Run(tr); got != want {
		t.Fatalf("seed %#x: compiled %+v, reference %+v", seed, got, want)
	}
	sameCacheState(t, core, ref)
	n := core.ReplayedOps()
	if want, stores := ruleReplayed(t, cfg, seed, ct); n != want || core.ReplayedStores() != stores {
		t.Fatalf("seed %#x: replayed %d of %d ops and %d stores, the rule %d and %d",
			seed, n, len(ct.Ops), core.ReplayedStores(), want, stores)
	}
	kept := 0
	for _, m := range core.plan.keep {
		kept += bits.OnesCount64(m)
	}
	if kept != n {
		t.Fatalf("seed %#x: replayed %d ops, the final keep mask holds %d", seed, n, kept)
	}
	return n
}

// storeConfig is elisionConfig's write-through L1s, DL1 replacement dl1,
// over a 16-set 4-way Modulo L2 with replacement l2 and write policy
// write. Line L sits in DL1 set L%8 and L2 set L%16, so lines 0 and 8
// contend in DL1 while each is alone in its L2 set, and lines 0, 16, 32,
// 48 and 64 share L2 set 0.
func storeConfig(dl1, l2 cache.ReplacementKind, write cache.WritePolicy) Config {
	cfg := elisionConfig(dl1, cache.WriteThrough)
	cfg.L2 = cache.Config{
		Name: "L2", SizeBytes: 4096, Ways: 4, LineBytes: 64,
		Placement: placement.Modulo, Replacement: l2, Write: write,
	}
	return cfg
}

// TestStoreElision pins store elision: under a cold write-through Random
// or FIFO DL1 and a write-back Random or FIFO L2, each data line's first
// store is replayed, and its later stores are skipped until an L2 fill
// evicts the line, after which its next store is replayed; every store's
// DL1 hit or miss is counted from the DL1 residency of its line. Each
// case runs a trace over 64 seeds on one core, every run checked by
// checkElidedRun against ruleReplayed and the per-access reference
// (Result and every level's state, L2 dirty bits and the DL1's cold flag
// included), then once warm, which must replay every op. Where a case
// gives want, each cold run skips exactly that many stores; some seed
// must show the outcome a case is about.
func TestStoreElision(t *testing.T) {
	random, fifo, lru := cache.Random, cache.FIFO, cache.LRU
	wb, wt := cache.WriteBack, cache.WriteThrough
	// Line 0 is stored to between loads of line 8 in its DL1 set, which
	// may evict it, and reloads of line 0 that may bring it back; line 8
	// is stored to twice. No line leaves the L2.
	evicts := dataTrace([]uint64{0, 0, 8, 0, 8, 0, 0, 8, 0, 0, 8, 0}, ".s.s.s.ss.s.")
	// A line only stored to: its first store fills the L2 and no DL1, and
	// every store misses the DL1.
	storeOnly := dataTrace([]uint64{3, 3, 3, 3}, "ssss")
	// Line 0 loaded before its first store: the stores hit the DL1 until
	// the run ends with the line resident.
	loadedFirst := dataTrace([]uint64{0, 0, 0, 0}, ".sss")
	// Line 0 stored to first: the later stores miss DL1 until a load
	// fills it.
	storeFirst := dataTrace([]uint64{0, 0, 0, 0, 0, 0}, "ss.s.s")
	// Line 0 stored to, then four more lines of its L2 set filled by
	// fetches, loads or stores, then two more stores to line 0. A FIFO
	// L2 evicts line 0 at the fourth fill, a Random one at any fill or
	// at none.
	evictBy := func(k byte) trace.Trace {
		kinds := "s" + strings.Repeat(string(k), 4) + "ss"
		return dataTrace([]uint64{0, 16, 32, 48, 64, 0, 0}, kinds)
	}
	// The same with fetches, then a hundred loads alternating between
	// lines 1 and 2, which nothing evicts from the DL1, before line 0's
	// next store: it is marked in a later block than the eviction.
	far := []uint64{0, 16, 32, 48, 64}
	for i := 0; i < 100; i++ {
		far = append(far, uint64(1+i%2))
	}
	farKinds := "sffff" + strings.Repeat(".", 100) + "ss"
	farTrace := dataTrace(append(far, 0, 0), farKinds)
	// Lines 16 and 32 settle their DL1 set while their L2 fills may
	// evict line 0, which owns its way of their L2 set: a load can both
	// evict a DL1 line, marking its next read, and end line 0's
	// ownership.
	settling := []uint64{0, 16, 32, 0}
	for i := 0; i < 40; i++ {
		settling = append(settling, 16+16*uint64(i%2))
	}
	settleEvict := dataTrace(settling, "s..s")
	// Lines 0 and 16 share L2 set 0, each owning a way of it; a fill of
	// one may evict the other.
	sharedL2 := dataTrace([]uint64{0, 16, 0, 16, 0, 16}, "..ssss")
	// Line 2 fetched and stored to: an instruction and a data line ID on
	// one L2 line, which a data line ID may own.
	bothStreams := dataTrace([]uint64{2, 2, 2, 2, 2}, "fs.ss")
	// Loads of lines 0 and 8 settle their DL1 set inside the first
	// block, with line 1's later stores skipped around them.
	var lines []uint64
	kinds := ""
	for i := 0; i < 100; i++ {
		lines = append(lines, []uint64{0, 8, 1, 1}[i%4])
		kinds += "...s"[i%4 : i%4+1]
	}
	settles := dataTrace(lines, kinds)
	// Stores to both granules of line 0, which the relocated form would
	// number as two IDs: Relocate rebuilds, so line 0's later stores are
	// skipped as in the compiled form.
	aliased := trace.Trace{{Addr: 0, Kind: trace.Load}, {Addr: 32, Kind: trace.Store},
		{Addr: 0, Kind: trace.Store}, {Addr: 32, Kind: trace.Store}}
	always := func(cache.Stats, int, int) bool { return true }
	misses := func(n uint64) func(cache.Stats, int, int) bool {
		return func(s cache.Stats, _, _ int) bool { return s.Misses == n }
	}
	skips := func(n int) func(cache.Stats, int, int) bool {
		return func(_ cache.Stats, skipped, _ int) bool { return skipped == n }
	}
	type storeCase struct {
		name     string
		cfg      Config
		tr       trace.Trace
		relocate bool
		want     int // stores skipped by each cold run, or byRule
		// outcome reports whether a run that skipped skipped stores and
		// replayed replayed ops shows what the case is about.
		outcome func(dl1 cache.Stats, skipped, replayed int) bool
	}
	cases := []storeCase{
		// 6 loads and 6 stores: both lines resident in the DL1 from their
		// first loads on, or line 0 evicted by every load of line 8.
		{"random/settled", storeConfig(random, random, wb), evicts, false, 4, misses(2)},
		{"random/evicted", storeConfig(random, random, wb), evicts, false, 4, func(s cache.Stats, _, _ int) bool { return s.Misses >= 6 }},
		{"fifo", storeConfig(fifo, random, wb), evicts, false, 4, always},
		{"store-only", storeConfig(random, random, wb), storeOnly, false, 3, misses(4)},
		{"loaded-first", storeConfig(random, random, wb), loadedFirst, false, 2, misses(1)},
		{"store-first", storeConfig(random, random, wb), storeFirst, false, 3, always},
		{"far/fifo", storeConfig(random, fifo, wb), farTrace, false, 1, always},
		{"far/random", storeConfig(random, random, wb), farTrace, false, byRule, skips(1)},
		{"shared-l2", storeConfig(random, random, wb), sharedL2, false, byRule, skips(2)},
		{"settle-evict", storeConfig(random, random, wb), settleEvict, false, byRule, skips(0)},
		{"both-streams", storeConfig(random, random, wb), bothStreams, false, 2, always},
		{"settles", storeConfig(random, random, wb), settles, false, 24, func(_ cache.Stats, _, n int) bool { return n < 10 }},
		{"aliased", storeConfig(random, random, wb), aliased, true, 2, always},
		// An LRU DL1 skips by occupancy, so the certainty rule skips line
		// 0's two middle stores: lines 0 and 8 fill DL1 set 0's two ways
		// and each sits alone in its L2 set. A write-through L2 never holds
		// a line only stored to. A Random DL1 takes the miss rule, whose
		// owner rule needs an L2 with stateless hits, and an LRU L2's hits
		// tick.
		{"lru-dl1", storeConfig(lru, random, wb), evicts, false, 2, always},
		{"write-through-l2", storeConfig(random, random, wt), storeOnly, false, 0, always},
		{"lru-l2", storeConfig(random, lru, wb), evicts, false, 0, always},
	}
	// Line 0 leaves the L2 before its second store, under FIFO always,
	// under Random at some seeds, and stays at others.
	for _, k := range []struct {
		name string
		kind byte
	}{{"fetch", 'f'}, {"load", '.'}, {"store", 's'}} {
		tr := evictBy(k.kind)
		cases = append(cases,
			storeCase{"evict-by-" + k.name + "/fifo", storeConfig(random, fifo, wb), tr, false, 1, always},
			storeCase{"evict-by-" + k.name + "/random", storeConfig(fifo, random, wb), tr, false, byRule, skips(1)},
			storeCase{"kept-despite-" + k.name + "/random", storeConfig(fifo, random, wb), tr, false, byRule, skips(2)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ct := compile(t, tc.tr)
			if tc.relocate {
				ct = relocated(t, tc.tr)
			}
			stores := 0
			for _, op := range ct.Ops {
				if op.Kind == trace.Store {
					stores++
				}
			}
			core, ref := mustNew(t, tc.cfg), mustNew(t, tc.cfg)
			seen := false
			for seed := 0; seed < 64; seed++ {
				replayed := checkElidedRun(t, tc.cfg, core, ref, prng.Derive(0x5707E, seed), ct, tc.tr)
				skipped := stores - core.ReplayedStores()
				if tc.want != byRule && skipped != tc.want {
					t.Fatalf("seed %d skipped %d of %d stores, want %d", seed, skipped, stores, tc.want)
				}
				seen = seen || tc.outcome(core.dl1.End(), skipped, replayed)
			}
			if !seen {
				t.Fatal("no seed shows the case's outcome")
			}
			if got, want := core.RunCompiled(ct), ref.Run(tc.tr); got != want {
				t.Fatalf("warm: compiled %+v, reference %+v", got, want)
			}
			sameCacheState(t, core, ref)
			if core.ReplayedOps() != len(ct.Ops) {
				t.Fatalf("warm run replayed %d of %d ops", core.ReplayedOps(), len(ct.Ops))
			}
		})
	}
}

// TestLRUStoreElision pins the certainty rule of store elision: under a
// cold write-through LRU DL1, which the LRU pass classifies, and a cold
// write-back L2, a data line's stores but its first and last are skipped
// when its L2 set holds at most the L2's limit of line IDs of either
// stream. storeConfig puts line L in DL1 set L%8 of two ways and L2 set
// L%16 of four. Each case runs over 8 seeds on one core, every run
// checked by checkElidedRun against ruleReplayed (ops and stores) and the
// per-access reference (Result and every level's state: the L2's LRU
// tick and stamps, dirty bits, and the DL1's restored stamps), then once
// warm, which must replay every op. want is the number of stores each
// cold run skips on the LRU L2; the cases run on FIFO and Random L2s
// too, where ruleReplayed alone gives the count.
func TestLRUStoreElision(t *testing.T) {
	// Fetches of lines 16, 32, 48 and 64, four more lines of line 0's L2
	// set, evict line 0 from the LRU L2 between its stores, so its two
	// middle stores are kept; line 1 sits alone and its one is skipped.
	l2Over := dataTrace([]uint64{0, 0, 16, 32, 48, 64, 0, 0, 0, 1, 1, 1, 1}, ".sffffsss.sss")
	// The same with the four lines only stored to, so the DL1 counts none
	// of them.
	l2OverStored := dataTrace([]uint64{0, 0, 16, 32, 48, 64, 0, 0, 0, 1, 1, 1, 1}, ".ssssssss.sss")
	// Two granules of line 0 would get two IDs in the relocated form, which
	// Relocate rebuilds as the compiled one; line 2 has one granule.
	aliased := trace.Trace{
		{Addr: 0, Kind: trace.Load}, {Addr: 32, Kind: trace.Store}, {Addr: 0, Kind: trace.Store},
		{Addr: 32, Kind: trace.Store}, {Addr: 0, Kind: trace.Store}, {Addr: 32, Kind: trace.Store},
		{Addr: 0, Kind: trace.Store}, {Addr: 128, Kind: trace.Load}, {Addr: 128, Kind: trace.Store},
		{Addr: 128, Kind: trace.Store}, {Addr: 128, Kind: trace.Store},
	}
	lru, fifo := cache.LRU, cache.FIFO
	for _, tc := range []struct {
		name     string
		dl1      cache.ReplacementKind
		tr       trace.Trace
		relocate bool
		want     int // stores skipped by each cold run on the LRU L2
	}{
		// Line 0 loaded, then stored to four times: the middle two hit
		// both levels.
		{"certain", lru, dataTrace([]uint64{0, 0, 0, 0, 0}, ".ssss"), false, 2},
		// Lines 0, 8 and 16 overfill DL1 set 0, whose accesses the LRU
		// pass classifies, so line 0's middle store is skipped like line
		// 1's, alone in its set.
		{"uncertain-dl1", lru, dataTrace([]uint64{0, 8, 16, 1, 0, 1, 0, 1, 0, 1}, "....ssssss"), false, 2},
		// The same with a load of both granules of line 2 at the end, two
		// IDs of one line in the relocated form: Relocate rebuilds, so line
		// 0's middle store is skipped as above.
		{"uncertain-dl1/aliased", lru, append(dataTrace([]uint64{0, 8, 16, 1, 0, 1, 0, 1, 0, 1}, "....ssssss"),
			trace.Access{Addr: 128, Kind: trace.Load}, trace.Access{Addr: 160, Kind: trace.Load}), true, 2},
		// In the same uncertain set, line 0's middle stores before its
		// first read are certain misses and skipped, the one after too.
		{"uncertain-dl1/before-first-read", lru, dataTrace([]uint64{0, 0, 0, 0, 8, 16, 0, 0}, "sss...ss"), false, 3},
		{"l2-over-ways/fetched", lru, l2Over, false, 1},
		{"l2-over-ways/stored", lru, l2OverStored, false, 1},
		// Line 3 is never read: its two middle stores miss the DL1.
		{"store-only", lru, dataTrace([]uint64{3, 3, 3, 3}, "ssss"), false, 2},
		// Stores 1 and 2 come before line 0's first read and miss the DL1,
		// store 4 after it hits.
		{"before-first-read", lru, dataTrace([]uint64{0, 0, 0, 0, 0, 0}, "sss.ss"), false, 3},
		// Line 0 is stored to once and line 1 twice: nothing in between.
		{"single-store", lru, dataTrace([]uint64{0, 0, 0, 1, 1, 1}, ".s..ss"), false, 0},
		// Every store of line 0 follows its last read.
		{"after-last-read", lru, dataTrace([]uint64{0, 1, 0, 0, 0, 0, 1}, "..ssss."), false, 2},
		// Line 0's four stores in the compiled form, line 2's one.
		{"aliased/compiled", lru, aliased, false, 5},
		// The relocated form is rebuilt and skips the same stores; a FIFO
		// DL1 takes the miss rule, and no store rule runs on an LRU L2
		// under it.
		{"aliased/relocated", lru, aliased, true, 5},
		{"aliased/relocated-fifo", fifo, aliased, true, 0},
		// Line 2 fetched and stored to: an instruction and a data line ID
		// on one L2 line, two lines of its L2 set by ID.
		{"both-streams", lru, dataTrace([]uint64{2, 2, 2, 2, 2, 2}, "f.sss."), false, 1},
	} {
		for _, l2 := range []cache.ReplacementKind{cache.LRU, cache.FIFO, cache.Random} {
			t.Run(tc.name+"/"+l2.String(), func(t *testing.T) {
				cfg := storeConfig(tc.dl1, l2, cache.WriteBack)
				cfg.IL1.Replacement = cache.LRU
				ct := compile(t, tc.tr)
				if tc.relocate {
					ct = relocated(t, tc.tr)
				}
				stores := 0
				for _, op := range ct.Ops {
					if op.Kind == trace.Store {
						stores++
					}
				}
				core, ref := mustNew(t, cfg), mustNew(t, cfg)
				for seed := 0; seed < 8; seed++ {
					checkElidedRun(t, cfg, core, ref, prng.Derive(0x1205, seed), ct, tc.tr)
					if skipped := stores - core.ReplayedStores(); l2 == cache.LRU && skipped != tc.want {
						t.Fatalf("seed %d skipped %d of %d stores, want %d", seed, skipped, stores, tc.want)
					}
				}
				if got, want := core.RunCompiled(ct), ref.Run(tc.tr); got != want {
					t.Fatalf("warm: compiled %+v, reference %+v", got, want)
				}
				sameCacheState(t, core, ref)
				if core.ReplayedOps() != len(ct.Ops) {
					t.Fatalf("warm run replayed %d of %d ops", core.ReplayedOps(), len(ct.Ops))
				}
			})
		}
	}
}

// TestLRUMissClassification pins the LRU pass: on a cold write-through
// LRU DL1, the accesses of DL1 sets that hold more than Ways read lines are classified by one
// exact LRU pass, their hits skipped, their misses served at the L2
// alone, and a miss whose line's L2 set is certain skipped too unless it
// is the line's first or last L2 access. Each case runs over 64 seeds on
// one core, on storeConfig's modulo+LRU L1s over a write-back LRU L2
// (line L in DL1 set L%8 of two ways and L2 set L%16 of four) and with
// an RM DL1, whose sets the seed draws; every run is checked by
// checkElidedRun against ruleReplayed and the per-access reference
// (Result and every level's state), then once warm, which must replay
// every op. On the modulo DL1 each run must replay want ops.
func TestLRUMissClassification(t *testing.T) {
	// sweep returns n loads cycling through lines, then a load of line 1,
	// alone in its DL1 set, so the sweep's last loads fold apart.
	sweep := func(n int, lines ...uint64) trace.Trace {
		return dataTrace(append(alternate(n, lines...), 1), "")
	}
	// Lines 0, 8 and 16 share DL1 set 0: a store hit on line 0 restamps
	// it, so each load of line 16 evicts line 8 and line 0 keeps hitting,
	// as cacheb01's stores keep its lines.
	var restamp []uint64
	for i := 0; i < 12; i++ {
		restamp = append(restamp, 0, 8, 0, 16)
	}
	// A store to line 8 before its first load makes that store line 8's
	// first L2 access, so its first load is skipped; line 0's and line
	// 16's first loads are their first L2 accesses and are kept.
	storedFirst := append(trace.Trace{{Addr: 8 * 64, Kind: trace.Store}}, sweep(30, 0, 8, 16)...)
	// A store to line 1, alone in DL1 set 1, before its one load: the
	// store misses the DL1 and is line 1's first L2 access, and the load,
	// its set's only miss, stays replayed.
	storedAlone := append(trace.Trace{{Addr: 1 * 64, Kind: trace.Store}}, sweep(60, 0, 8, 16)...)
	// Two granules of line 0 would get two IDs in the relocated form.
	aliased := append(trace.Trace{{Addr: 32, Kind: trace.Load}}, sweep(30, 0, 8, 16)...)
	lru := storeConfig(cache.LRU, cache.LRU, cache.WriteBack)
	rm := lru
	rm.DL1.Placement = placement.RM
	for _, tc := range []struct {
		name     string
		tr       trace.Trace
		relocate bool
		want     int // ops each cold run replays on the modulo DL1
	}{
		// Every load misses; each line's first and last are kept, with
		// line 1's load.
		{"cyclic/ways+1", sweep(60, 0, 8, 16), false, 7},
		{"cyclic/ways+3", sweep(100, 0, 8, 16, 24, 32), false, 11},
		// Line 0's first load, the first and last store of line 0 and
		// the first and last loads of lines 8 and 16.
		{"store-hits-restamp", dataTrace(restamp, strings.Repeat("..s.", 12)), false, 7},
		// Lines 0, 16, 32, 48 and 64 overfill L2 set 0 as well: every
		// miss is replayed, at the L2 alone.
		{"uncertain-l2", sweep(50, 0, 16, 32, 48, 64), false, 51},
		{"first-l2-read", storedFirst, false, 7},
		{"stored-alone", storedAlone, false, 8},
		// Relocate rebuilds, and the pass classifies the rebuilt form,
		// whose first two loads fold into one op, like the sweep above.
		{"aliased", aliased, true, 7},
	} {
		for _, cfg := range []struct {
			name string
			cfg  Config
		}{{"modulo", lru}, {"rm", rm}} {
			t.Run(tc.name+"/"+cfg.name, func(t *testing.T) {
				ct := compile(t, tc.tr)
				if tc.relocate {
					ct = relocated(t, tc.tr)
				}
				core, ref := mustNew(t, cfg.cfg), mustNew(t, cfg.cfg)
				for seed := 0; seed < 64; seed++ {
					n := checkElidedRun(t, cfg.cfg, core, ref, prng.Derive(0xC1A55, seed), ct, tc.tr)
					if cfg.name == "modulo" && n != tc.want {
						t.Fatalf("seed %d replayed %d of %d ops, want %d", seed, n, len(ct.Ops), tc.want)
					}
				}
				if got, want := core.RunCompiled(ct), ref.Run(tc.tr); got != want {
					t.Fatalf("warm: compiled %+v, reference %+v", got, want)
				}
				sameCacheState(t, core, ref)
				if core.ReplayedOps() != len(ct.Ops) {
					t.Fatalf("warm run replayed %d of %d ops", core.ReplayedOps(), len(ct.Ops))
				}
			})
		}
	}
}

// TestStoreMissWindows pins the DL1 store counting of store-eliding
// runs: a store misses the cold write-through DL1 exactly when its line is
// not resident, before the line's first read and from each eviction of
// the line to its next read, or the run's end. Lines 0, 8 and 16 share a
// 2-way Random DL1 set, so a load of 8 or 16 may evict line 0; line 1
// sits alone in its set. Each case runs over 64 seeds on one core,
// checked by checkElidedRun against the per-access reference and against
// a full replay of the same ops (a nil Index), Result for Result: DL1
// and L2 Stats and Cycles. The DL1 misses of some seed must equal each
// value a case lists.
func TestStoreMissWindows(t *testing.T) {
	cfg := storeConfig(cache.Random, cache.Random, cache.WriteBack)
	for _, tc := range []struct {
		name   string
		tr     trace.Trace
		misses []uint64 // DL1 misses some seed shows
	}{
		// Two stores before line 0's first load miss, the one after hits.
		{"before-first-read", dataTrace([]uint64{0, 0, 0, 0}, "ss.s"), []uint64{3}},
		// Line 3 is stored to and never read: each store misses.
		{"never-read", dataTrace([]uint64{3, 0, 3, 0, 3}, "s.s.s"), []uint64{4}},
		// Line 0 is evicted at op 2 or op 4 or not at all before its
		// reload at op 6: the stores after the eviction miss, the ones
		// before it hit.
		{"between-eviction-and-read", dataTrace([]uint64{0, 0, 8, 0, 16, 0, 0, 0}, ".s.s.s.s"), []uint64{3, 5, 6}},
		// Stores after line 0's last read: they miss from its eviction
		// on, and all hit while it stays resident to the end.
		{"after-last-read/evicted", dataTrace([]uint64{0, 0, 8, 0, 16, 0, 0}, ".s.s.ss"), []uint64{3, 5, 6}},
		{"after-last-read/resident", dataTrace([]uint64{0, 0, 1, 0, 0}, ".s.ss"), []uint64{2}},
		// Every eviction comes after the stream's last store (op 2).
		{"eviction-after-last-store", dataTrace([]uint64{0, 0, 0, 8, 16, 0, 8}, ".ss...."), []uint64{4, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ct := compile(t, tc.tr)
			all := *ct
			all.Index = nil
			core, ref, full := mustNew(t, cfg), mustNew(t, cfg), mustNew(t, cfg)
			seen := map[uint64]bool{}
			for seed := 0; seed < 64; seed++ {
				checkElidedRun(t, cfg, core, ref, prng.Derive(0x3155, seed), ct, tc.tr)
				core.Reseed(prng.Derive(0x3155, seed))
				got := core.RunCompiled(ct)
				full.Reseed(prng.Derive(0x3155, seed))
				if want := full.RunCompiled(&all); got != want {
					t.Fatalf("seed %d: compiled %+v, full replay %+v", seed, got, want)
				}
				seen[got.DL1.Misses] = true
			}
			for _, n := range tc.misses {
				if !seen[n] {
					t.Errorf("no seed shows %d DL1 misses (seen %v)", n, seen)
				}
			}
		})
	}
}

// TestStoreScratchOnlyWhereUsed pins that a core allocates each store
// elision rule's scratch and the LRU pass's on the first run that
// applies the rule, and the miss rule's only on a Random or FIFO L1. Each
// core replays a compiled run, a relocated one, and one relocated to a
// layout that puts tblook01's table and result buffer on the same lines,
// which Relocate rebuilds. A modulo+LRU baseline core takes the certainty
// rule and the LRU pass on all three, and never allocates the ownership
// or miss rules' scratch. An RM core takes the ownership rule on all
// three, and never allocates the certainty rule's or the pass's scratch.
func TestStoreScratchOnlyWhereUsed(t *testing.T) {
	w, err := workload.ByName("tblook01")
	if err != nil {
		t.Fatal(err)
	}
	base := paperConfig(placement.Modulo)
	base.L2.Placement, base.L2.Replacement = placement.Modulo, cache.LRU
	aliasing := workload.BaselineLayout()
	aliasing.Table = aliasing.Data
	for _, tc := range []struct {
		name string
		cfg  Config
		// whether each run allocates the ownership and miss rules'
		// scratch, the certainty rule's and the LRU pass's
		owner, certain, pass bool
	}{
		{"baseline", base, false, true, true},
		{"rm", paperConfig(placement.RM), true, false, false},
	} {
		lb := tc.cfg.DL1.LineBytes
		rel, err := w.Relocatable(workload.BaselineLayout(), lb)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := trace.Compile(w.Build(workload.DefaultLayout()), lb)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := trace.Compile(w.Build(aliasing), lb)
		if err != nil {
			t.Fatal(err)
		}
		aliased := rel.Relocate(aliasing)
		if !sameCompiled(aliased, rebuilt) {
			t.Fatalf("%s: the aliasing layout's relocation is not its rebuild", tc.name)
		}
		core := mustNew(t, tc.cfg)
		p := &core.plan
		for i, ct := range []*trace.Compiled{ct, rel.Relocate(workload.BaselineLayout()), aliased} {
			core.Reseed(prng.Derive(0x5C4, i))
			core.RunCompiled(ct)
			if got := p.rI.who != nil || p.rD.who != nil || p.sk.owner != nil; got != tc.owner {
				t.Errorf("%s run %d: ownership and miss-rule scratch allocated %v, want %v", tc.name, i, got, tc.owner)
			}
			if got := p.sk.sets != nil; got != tc.certain {
				t.Errorf("%s run %d: certainty scratch allocated %v, want %v", tc.name, i, got, tc.certain)
			}
			if got := p.lp.stamp != nil || p.lp.res != nil || p.lp.walk != nil; got != tc.pass {
				t.Errorf("%s run %d: LRU pass scratch allocated %v, want %v", tc.name, i, got, tc.pass)
			}
		}
	}
}
