package sim

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRunAllStatsArePerCall is the regression test for the cumulative-
// stats bug: RunAll used to copy each cache's lifetime counters into its
// Results, so a second RunAll on the same System (or any prior
// single-core run) double-counted accesses and misses.
func TestRunAllStatsArePerCall(t *testing.T) {
	sys, err := NewSystem(paperConfig(placement.RM), 2)
	if err != nil {
		t.Fatal(err)
	}
	sys.Reseed(5)
	b := trace.NewBuilder(0)
	for i := 0; i < 4000; i++ {
		b.Load(uint64(i*32) % (64 * 1024))
	}
	cts := compileAll(t, 32, b.Trace(), b.Trace())

	first := sys.RunAll(cts)
	second := sys.RunAll(cts)
	for i := range first {
		if got := second[i].DL1.Accesses; got != first[i].DL1.Accesses {
			t.Fatalf("core %d: second RunAll reports %d DL1 accesses, first %d (cumulative, not per-call)",
				i, got, first[i].DL1.Accesses)
		}
		if second[i].DL1.Accesses != 4000 {
			t.Fatalf("core %d: DL1 accesses = %d, want 4000", i, second[i].DL1.Accesses)
		}
		// The warm second pass must show the hits it earned, not the cold
		// pass's misses again.
		if second[i].DL1.Misses >= first[i].DL1.Misses+second[i].DL1.Hits {
			t.Fatalf("core %d: second-call misses %d look cumulative", i, second[i].DL1.Misses)
		}
	}

	// Interleaving a direct RunCompiled must not leak into RunAll either.
	sys.cores[0].RunCompiled(cts[0])
	third := sys.RunAll(cts)
	if third[0].DL1.Accesses != 4000 {
		t.Fatalf("RunAll after RunCompiled reports %d DL1 accesses, want 4000", third[0].DL1.Accesses)
	}
}

// sameResults fails the test unless RunAll's per-core results equal the
// oracle's.
func sameResults(t *testing.T, what string, got, want []Result) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s core %d: RunAll %+v, refRunAll %+v", what, i, got[i], want[i])
		}
	}
}

// TestRunAllMatchesReference holds the two-phase RunAll to the per-op
// oracle: every L1 placement of the paper × every replacement policy,
// systems of one to four cores with idle cores in several positions and
// four streamers on one sweep (whose cold misses tie for the bus), each
// at three seeds, cold and then warm. Every per-core Result, cycles
// included, must equal refRunAll's.
func TestRunAllMatchesReference(t *testing.T) {
	subject := mixedTrace(0x5EF, 5000)
	hog, other := streamTrace(1<<26, 8000), streamTrace(2<<26, 6000)
	var mixes [][]*trace.Compiled
	for _, mix := range [][]trace.Trace{
		{subject},
		{subject, hog},
		{nil, subject, other},
		{hog, nil, subject, nil},
		{subject, hog, other, hog},
		{nil, nil, nil, other},
		{hog, hog, hog, hog},
	} {
		mixes = append(mixes, compileAll(t, 32, mix...))
	}
	for _, pk := range []placement.Kind{placement.RM, placement.Modulo, placement.HRP} {
		for _, rk := range []cache.ReplacementKind{cache.Random, cache.LRU, cache.PLRU, cache.FIFO} {
			cfg := paperConfig(pk)
			cfg.IL1.Replacement, cfg.DL1.Replacement, cfg.L2.Replacement = rk, rk, rk
			for m, cts := range mixes {
				a, err := NewSystem(cfg, len(cts))
				if err != nil {
					t.Fatal(err)
				}
				b, err := NewSystem(cfg, len(cts))
				if err != nil {
					t.Fatal(err)
				}
				for seed := 0; seed < 3; seed++ {
					a.Reseed(prng.Derive(0x2E5, seed))
					b.Reseed(prng.Derive(0x2E5, seed))
					for _, call := range []string{"cold", "warm"} {
						what := fmt.Sprintf("%v/%v mix %d seed %d %s", pk, rk, m, seed, call)
						sameResults(t, what, a.RunAll(cts), b.refRunAll(cts))
					}
				}
			}
		}
	}
}

// FuzzRunAll holds RunAll to refRunAll on fuzzed traces over the small
// hierarchy of FuzzCompiledReplay (fuzzConfig's selector). shape picks
// the core count (low two bits, plus one), the idle cores (bits 2 to 5)
// and whether each active core replays its own share of data or all of
// it (bit 6), which makes the cores' misses tie for the bus. Each seed
// runs cold and then warm.
func FuzzRunAll(f *testing.F) {
	f.Add(uint8(0x08), uint64(1), uint8(0x03), []byte("\x40\x42\x44\x80\x10\x50\x90\x60\x20\x84\x46\x48"))
	f.Add(uint8(0x08), uint64(2), uint8(0x43), []byte("\x40\x50\x60\x70\x80\x90\xa0\xb0\x00\x10\x20\x30"))
	f.Add(uint8(0x8C), uint64(3), uint8(0x46), []byte("\x80\x10\x20\x30\x80\x10\x20\x30\x80\x10\x20\x30\x80"))
	f.Add(uint8(0x82), uint64(4), uint8(0x17), []byte("\x40\x80\x10\x20\x30\xa0\x80\x80\x80\x42\x82\x82\x82"))
	f.Add(uint8(0x93), uint64(5), uint8(0x63), []byte("\x80\x82\x84\x86\x88\x8a\x8c\x8e\x90\x92\x94\x96\x98\x9a\x9c\x9e"))
	f.Add(uint8(0x11), uint64(6), uint8(0x0b), []byte("\x00\x40\x80\x01\x41\x81\x02\x42\x82\x03\x43\x83"))
	// Two cores tie for the bus where round-robin from the last grantee
	// and lowest-index arbitration pick different cores.
	f.Add(uint8(0x8C), uint64(2), uint8(0x46), []byte("A\x10 0\x80 0\x80\x1020"))
	// Three rounds of a store to every even granule and a load of an odd
	// one: all 32 lines, as many as the L2 holds, so a randomized
	// placement overflows some of its sets, which fill and write back
	// throughout.
	var sweep []byte
	for r := 0; r < 3; r++ {
		for g := byte(0); g < 64; g += 2 {
			sweep = append(sweep, 0x80|g, 0x40|(g+17)%64)
		}
	}
	for i, c := range []struct{ sel, shape uint8 }{{0x8B, 0x43}, {0x8B, 0x03}, {0x93, 0x41}, {0xA8, 0x4B}, {0xA8, 0x02}, {0x8D, 0x42}} {
		f.Add(c.sel, uint64(7+i), c.shape, sweep)
	}
	f.Fuzz(func(t *testing.T, sel uint8, seed uint64, shape uint8, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		n := 1 + int(shape&3)
		traces := make([]trace.Trace, n)
		for k := range traces {
			if shape>>(2+k)&1 != 0 {
				continue // idle
			}
			share := data[k*len(data)/n : (k+1)*len(data)/n]
			if shape&0x40 != 0 {
				share = data
			}
			traces[k] = fuzzTrace(share)
		}
		cts := compileAll(t, 64, traces...)
		cfg := fuzzConfig(sel)
		a, err := NewSystem(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewSystem(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		a.Reseed(seed)
		b.Reseed(seed)
		for _, call := range []string{"cold", "warm"} {
			sameResults(t, fmt.Sprintf("sel %#x shape %#x %s", sel, shape, call), a.RunAll(cts), b.refRunAll(cts))
		}
	})
}

// TestRunAllSteadyStateAllocs pins RunAll's allocations: once its logs
// have grown, a call allocates only the []Result it returns.
func TestRunAllSteadyStateAllocs(t *testing.T) {
	sys, err := NewSystem(paperConfig(placement.RM), 4)
	if err != nil {
		t.Fatal(err)
	}
	cts := compileAll(t, 32, mixedTrace(0xA11, 4000), streamTrace(1<<26, 6000), nil, streamTrace(2<<26, 6000))
	const seeds = 4
	for seed := 0; seed < seeds; seed++ {
		sys.Reseed(uint64(seed))
		sys.RunAll(cts)
	}
	seed := 0
	allocs := testing.AllocsPerRun(2*seeds, func() {
		sys.Reseed(uint64(seed % seeds))
		sys.RunAll(cts)
		seed++
	})
	if allocs != 1 {
		t.Fatalf("RunAll allocates %v times per call, want 1 (its []Result)", allocs)
	}
}

// TestRunAllLogShrinks pins the bound on the log capacity a lane keeps:
// after a call that logs a long stream on core 1, a call that logs a
// short one leaves core 1 at most logSlack times what that call used.
func TestRunAllLogShrinks(t *testing.T) {
	sys, err := NewSystem(paperConfig(placement.RM), 2)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSystem(paperConfig(placement.RM), 2)
	if err != nil {
		t.Fatal(err)
	}
	long := compileAll(t, 32, nil, streamTrace(1<<26, 60000))
	short := compileAll(t, 32, nil, streamTrace(1<<26, 600))
	sys.Reseed(1)
	fresh.Reseed(1)
	sys.RunAll(long)
	peak := cap(sys.lanes[1].txns)
	sys.RunAll(short)
	fresh.RunAll(short)
	used := len(fresh.lanes[1].txns)
	if c := cap(sys.lanes[1].txns); used == 0 || c > logSlack*used || c >= peak {
		t.Fatalf("after a call with log capacity %d, a call logging %d fills keeps capacity %d", peak, used, c)
	}
}

// BenchmarkRunAll times one reseeded RunAll on the RM paper platform's
// four cores: tblook01 on core 0, alone (solo) and against three
// co-runners (contended), the 160 KB synthetic streamer of the multicore
// study (paperbench -exp multicore), four sweeps. replayed-ops/op is the
// ops the cores' RunCompiled replays visited per call.
func BenchmarkRunAll(b *testing.B) {
	w, err := workload.ByName("tblook01")
	if err != nil {
		b.Fatal(err)
	}
	subject := w.Build(workload.DefaultLayout())
	hog := workload.Synthetic(160*1024, 4, 4).Build(workload.DefaultLayout())
	for _, bc := range []struct {
		name   string
		traces []trace.Trace
	}{
		{"solo", []trace.Trace{subject, nil, nil, nil}},
		{"contended", []trace.Trace{subject, hog, hog, hog}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cts := compileAll(b, 32, bc.traces...)
			sys, err := NewSystem(paperConfig(placement.RM), len(cts))
			if err != nil {
				b.Fatal(err)
			}
			sys.Reseed(prng.Derive(0xA11, 0))
			sys.RunAll(cts) // warm-up: allocate the plans and logs
			b.ReportAllocs()
			b.ResetTimer()
			replayed := 0
			for i := 0; i < b.N; i++ {
				sys.Reseed(prng.Derive(0xA11, i))
				sys.RunAll(cts)
				for k, c := range sys.cores {
					if cts[k] != nil {
						replayed += c.ReplayedOps()
					}
				}
			}
			b.ReportMetric(float64(replayed)/float64(b.N), "replayed-ops/op")
		})
	}
}

// refRunAll is RunAll's oracle: the per-op loop RunAll replaced, kept
// verbatim with its step and l1Read. It replays one compiled trace per
// core concurrently under the shared-bus model and returns per-core
// results; a nil entry is an idle core. Every active core begins its
// three levels on entry and takes the per-call Stats from End. It panics
// if len(cts) differs from the core count or a compiled line size is not
// the platform's.
//
// The model is event-driven: each core retires accesses in order; accesses
// that need a memory transaction (L2 miss or L2 writeback) must win the
// bus, which serves one transaction at a time. Arbitration is round-robin:
// among cores whose request is pending when the bus frees, the one
// following the last grantee wins. Before each op the loop picks the
// unfinished core with the earliest clock.
func (s *System) refRunAll(cts []*trace.Compiled) []Result {
	n := len(s.cores)
	if len(cts) != n {
		panic("sim: RunAll needs one compiled trace per core")
	}
	for i, c := range s.cores {
		if ct := cts[i]; ct != nil {
			if ct.LineBytes != c.lineBytes {
				badLineSize(ct.LineBytes, c.lineBytes)
			}
			c.preparePlans(ct)
			c.il1.Begin()
			c.dl1.Begin()
			c.l2.Begin()
		}
	}
	results := make([]Result, n)
	clocks := make([]uint64, n) // core-local completion time
	pos := make([]int, n)       // next op index per core
	var busFreeAt uint64
	lastGrant := n - 1

	for {
		// Pick the next core to advance: the unfinished core with the
		// earliest local clock; round-robin from lastGrant breaks ties so
		// bus contention resolves fairly.
		sel := -1
		for off := 1; off <= n; off++ {
			i := (lastGrant + off) % n
			if cts[i] == nil || pos[i] >= len(cts[i].Ops) {
				continue
			}
			if sel == -1 || clocks[i] < clocks[sel] {
				sel = i
			}
		}
		if sel == -1 {
			break
		}
		ct := cts[sel]
		op := ct.Ops[pos[sel]]
		local, memTxns := s.cores[sel].step(ct, op)
		pos[sel]++
		t := clocks[sel] + local
		for k := 0; k < memTxns; k++ {
			grant := t
			if busFreeAt > grant {
				grant = busFreeAt
			}
			busFreeAt = grant + busService
			lastGrant = sel
			t = grant + memLatency // the slot, then the rest of the DRAM latency
		}
		// The folded reads that directly followed op are L1 hits: they
		// retire right after it, one l1Hit each.
		clocks[sel] = t + uint64(op.Trail)*l1Hit
	}

	for i, c := range s.cores {
		if cts[i] == nil {
			continue
		}
		results[i] = Result{
			Cycles:   clocks[i],
			Accesses: cts[i].Accesses,
			IL1:      c.il1.End(),
			DL1:      c.dl1.End(),
			L2:       c.l2.End(),
		}
	}
	return results
}

// step replays one op of ct through the core's levels and returns the
// core-local cycles plus the number of memory-bus transactions it needs
// (an L2 fill, and an L2 dirty-victim writeback, one each). The reads
// folded into the op are L1 hits, so they add no transactions; their
// cycles are charged where they stood in the trace, through the Trail of
// the op they followed (see refRunAll). The index plans must already
// describe ct.
func (c *Core) step(ct *trace.Compiled, op trace.Op) (local uint64, memTxns int) {
	id := op.ID
	var b cache.AccessBits
	switch op.Kind {
	case trace.Fetch:
		local = l1Hit
		la := ct.ILines[id]
		if !l1Read(c.il1, &c.plan.il1[id], la, op.Rep) {
			return local, 0
		}
		local += l2Hit
		b = c.l2Read(la, &c.plan.l2i[id])
	case trace.Load:
		local = l1Hit
		la := ct.DLines[id]
		if !l1Read(c.dl1, &c.plan.dl1[id], la, op.Rep) {
			return local, 0
		}
		local += l2Hit
		b = c.l2Read(la, &c.plan.l2d[id])
	default: // Store
		local = l1Hit + storeBus
		b = c.store(ct.DLines[id], &c.plan.dl1[id], &c.plan.l2d[id], true)
	}
	if b&cache.BitFilled != 0 {
		memTxns++
	}
	if b&cache.BitWriteback != 0 {
		memTxns++
	}
	return local, memTxns
}

// l1Read serves an L1 read and the rep reads folded into it: a hinted
// hit, otherwise l1Slow. It reports whether the read missed the L1.
func l1Read(l1 *cache.Cache, e *uint32, la uint64, rep uint16) bool {
	if l1.Hinted(la, *e) {
		n := 1 + uint64(rep)
		l1.ReadHit(*e, n)
		l1.Hits(n)
		return false
	}
	return l1Slow(l1, e, la, rep)&cache.BitHit == 0
}
