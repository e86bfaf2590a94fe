package sim

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRunAllFoldMatchesUnfolded pins the fold under the shared-bus model:
// on an EEMBC-like subject whose loads fold across fetches, solo and
// against three streaming co-runners, RunAll of the folded Compiled must
// equal RunAll of the unfolded one for every core, bit for bit. A folded
// read's cycles must land where it stood in the trace (Op.Trail), or a
// co-runner holding the bus shifts the subject's grants.
func TestRunAllFoldMatchesUnfolded(t *testing.T) {
	w, err := workload.ByName("canrdr01")
	if err != nil {
		t.Fatal(err)
	}
	subject := w.Build(workload.DefaultLayout())
	hog := streamTrace(1<<26, 20000)
	folded := compileAll(t, 32, subject, hog, hog, hog)
	if len(folded[0].Ops) == folded[0].Len() {
		t.Fatal("subject folds nothing; the test needs folded reads")
	}
	unfolded := []*trace.Compiled{compileUnfolded(t, subject, 32), folded[1], folded[2], folded[3]}
	for _, pk := range []placement.Kind{placement.RM, placement.Modulo} {
		for _, rk := range []cache.ReplacementKind{cache.Random, cache.LRU, cache.PLRU} {
			cfg := paperConfig(pk)
			cfg.IL1.Replacement, cfg.DL1.Replacement, cfg.L2.Replacement = rk, rk, rk
			a, err := NewSystem(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewSystem(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, solo := range []bool{true, false} {
				fa, ua := folded, unfolded
				if solo {
					fa = []*trace.Compiled{folded[0], nil, nil, nil}
					ua = []*trace.Compiled{unfolded[0], nil, nil, nil}
				}
				for seed := 0; seed < 2; seed++ {
					a.Reseed(prng.Derive(0xF01D, seed))
					b.Reseed(prng.Derive(0xF01D, seed))
					got, want := a.RunAll(fa), b.RunAll(ua)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%v/%v solo=%v seed %d core %d: folded %+v, unfolded %+v",
								pk, rk, solo, seed, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// fuzzConfig is a deliberately small hierarchy (8-set 2-way L1s, an 8-set
// 4-way L2, 64 B lines) so a 32-line space conflicts at every level. The
// selector picks the placement, the replacement and the write policy
// (applied to DL1 and L2 alike); its top bit makes the L2 write-back
// whatever the DL1's, the paper's arrangement under a write-through
// DL1. Selector 0x82 is the baseline's: modulo+LRU write-through L1s over
// a write-back LRU L2.
func fuzzConfig(sel uint8) Config {
	kinds := placement.Kinds()
	pk := kinds[int(sel)%len(kinds)]
	rk := []cache.ReplacementKind{cache.LRU, cache.Random, cache.FIFO, cache.PLRU}[int(sel>>3)%4]
	write := []cache.WritePolicy{cache.WriteThrough, cache.WriteBack}[int(sel>>5)%2]
	l2Write := write
	if sel&0x80 != 0 {
		l2Write = cache.WriteBack
	}
	mk := func(name string, size, ways int, w cache.WritePolicy) cache.Config {
		return cache.Config{
			Name: name, SizeBytes: size, Ways: ways, LineBytes: 64,
			Placement: pk, Replacement: rk, Write: w,
		}
	}
	return Config{
		IL1: mk("IL1", 1024, 2, cache.WriteThrough),
		DL1: mk("DL1", 1024, 2, write),
		L2:  mk("L2", 2048, 4, l2Write),
	}
}

// fuzzTrace decodes one access per byte: the top two bits pick fetch,
// load, store or load again, the low six bits one of 64 32-byte granules
// (32 lines), shared by both streams so the L2 sees the same line from
// each.
func fuzzTrace(data []byte) trace.Trace {
	b := trace.NewBuilder(len(data))
	for _, x := range data {
		addr := uint64(x&0x3F) * 32
		switch x >> 6 {
		case 0:
			b.Fetch(addr)
		case 2:
			b.Store(addr)
		default:
			b.Load(addr)
		}
	}
	return b.Trace()
}

// FuzzCompiledReplay checks the hinted, folded, hit-eliding replay
// against the per-access reference Core.Run, which consults the placement
// policy on every access and serves every access through the level's
// slow path. Six replays share one core: two reseeded runs, a warm replay
// without Reseed, a warm replay of the trace's relocated form, the
// relocated form again after a Flush, and a warm replay of the second
// half of the trace on the state the full trace left, which a smaller
// Compiled than the last replays. The relocated form must equal the
// compiled one (sameCompiled): relocation numbers 32-byte granules, and
// where the trace touches both granules of a 64-byte line Relocate
// rebuilds, so both forms take the same rules, with their own index
// plans. The reseeded and flushed replays are cold: under Random and FIFO
// they replay only the reads that miss, and with a write-through DL1
// over a write-back L2 of the same kind (the selector's top bit) skip the
// stores to data lines that have stayed in the L2 since their previous
// store; under LRU they skip the reads their mapping makes certain hits,
// an LRU DL1 classifies the accesses of its sets of more than Ways lines
// by one LRU pass, and over a write-back L2 the run skips the middle
// stores of the data lines whose L2 sets it makes certain and the read
// misses whose L2 hit is certain. The warm ones must skip nothing. After
// every replay each level's state must equal the reference's too
// (sameCacheState), L2 dirty bits included, so an LRU restore that
// misses a stamp or a skipped store that leaves a line clean fails at
// once. Stale hints and deterministic plans reused across reseeds both
// occur. The shared-bus model must also give the folded and the
// unfolded Compiled the same Results against a streaming co-runner.
func FuzzCompiledReplay(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte("\x41\x41\x41\x01\x41\x81\x41\x00\x00\x50\x10\x50"))
	f.Add(uint8(0x2B), uint64(7), []byte("\x40\x00\x40\x00\x40\x80\x40\x10\x20\x30\x40\x50\x60\x70\x40"))
	f.Add(uint8(0x5E), uint64(42), []byte("\x00\x00\x00\x10\x10\x20\x20\x41\x41\x42\x42\x82\x82\x43\x43\x43\x10\x20"))
	// Modulo/LRU/write-back: two stores evict line 0 from its 2-way
	// DL1 set between two loads of it, so the second load must miss.
	f.Add(uint8(0x23), uint64(5), []byte("\x40\x90\xa0\x40"))
	// Loads alternating between the two granules of one line: Compile
	// folds them into one op, and the relocation, which would give the
	// line two IDs, is rebuilt.
	f.Add(uint8(0x33), uint64(3), []byte("\x44\x45\x44\x45\x45\x45\x04\x05\x04\x85\x44\x45"))
	// Modulo/Random/write-through no-allocate: loads alternating between
	// lines 0 and 8, two allocating lines in one DL1 set, so each may
	// evict the other until both are resident and the set settles.
	f.Add(uint8(0x0A), uint64(2), []byte("\x40\x50\x40\x50\x40\x50\x40\x50\x40\x50\x40\x50"))
	// The same over 80 loads, so the set settles inside a 64-op block
	// with later reads of it left in the block.
	f.Add(uint8(0x0A), uint64(9), []byte(strings.Repeat("\x40\x50", 40)))
	// Modulo/Random/write-through: fetches alternating between lines 0
	// and 8 settle IL1 set 0 while loads alternating between lines 1 and
	// 9 settle DL1 set 1, with stores to line 17 of that set (store-only,
	// so it fills nothing) between them.
	f.Add(uint8(0x0A), uint64(10), []byte("\x00\x42\x10\x52\x00\x42\x10\x52\xa2\x00\x42\x10\x52\x00\x42\x10\x52\xa2\x00\x42\x10\x52"))
	// RM/Random/write-through: loads of lines 0 to 11 round-robin, so
	// RM's mapping puts one or two lines in each DL1 set; fetches of
	// lines 0 to 11 do the same at IL1.
	f.Add(uint8(0x08), uint64(11), []byte("\x40\x42\x44\x46\x48\x4a\x4c\x4e\x50\x52\x54\x56\x40\x42\x44\x46\x48\x4a\x4c\x4e\x50\x52\x54\x56\x40\x42\x44\x46\x48\x4a\x4c\x4e\x50\x52\x54\x56"))
	f.Add(uint8(0x08), uint64(12), []byte("\x00\x02\x04\x06\x08\x0a\x0c\x0e\x10\x12\x14\x16\x00\x02\x04\x06\x08\x0a\x0c\x0e\x10\x12\x14\x16\x00\x02\x04\x06\x08\x0a\x0c\x0e\x10\x12\x14\x16"))
	// Modulo/FIFO: lines 0, 8 and 16 round-robin through one 2-way DL1
	// set, one line over the limit, so every load misses.
	f.Add(uint8(0x14), uint64(6), []byte("\x40\x50\x60\x40\x50\x60\x40\x50\x60"))
	// Line 0 loaded between stores to line 8 of its set: Modulo/Random
	// under write-through (the stores bypass DL1, line 0's later loads
	// are certain hits) and write-back (each store fills line 8 in and
	// may evict line 0), and Modulo/LRU under write-through, where the
	// store misses tick and line 0's later loads are skipped.
	for _, sel := range []uint8{0x0A, 0x28, 0x41} {
		f.Add(sel, uint64(4), []byte("\x40\x90\x40\x90\x40\x90\x40\x90\x40\x90\x40"))
	}
	// Modulo/LRU/write-through: lines 0 and 8 fill DL1 set 0 and line 1
	// set 1, stores to lines 16 and 24 of set 0 miss between their later
	// loads, which are skipped, and the warm replays' victims in set 0
	// follow the restored stamps and tick.
	f.Add(uint8(0x41), uint64(8), []byte("\x40\x50\xa0\x40\xa0\x50\x42\x40\xb0\x42\x50\x40\x60\x50"))
	// RMRot/Random/write-through at both levels: two stores to a line
	// only stored to both miss, since a write-through L2 never fills it,
	// so neither store may be skipped.
	f.Add(uint8(0x09), uint64(1), []byte("\x80\x80"))
	// hRP/Random over a write-back L2: line 0's later stores are skipped
	// while it stays in the L2, and line 1 or 2 shares its DL1 set and
	// evicts it, so stores find it gone and a reload brings it back.
	f.Add(uint8(0x89), uint64(2), []byte("\x40\x80\x42\x80\x44\x80\x40\x80\x42\x80\x44\x80\x40\x80\x42\x80\x40\x80"))
	// Line 0 fetched, loaded and stored to: an instruction and a data
	// line ID on one L2 line.
	f.Add(uint8(0x89), uint64(3), []byte("\x00\x80\x80\x40\x80\x00\x80"))
	// Stores to both granules of line 0: one ID in the compiled form,
	// whose later stores are skipped, and in the rebuilt relocated form.
	f.Add(uint8(0x89), uint64(4), []byte("\x40\x80\x81\x80\x41\x81\x80"))
	// Modulo/Random over a write-back L2: line 0, stored to and so dirty
	// and owning its L2 way, shares L2 set 0 with lines 8, 16 and 24,
	// whose fetches, loads or stores fill the set between line 0's
	// stores and, at both reseeded runs of these seeds, evict it; its
	// next store must then be replayed.
	f.Add(uint8(0x8C), uint64(10), []byte("\x80\x10\x20\x30\x80\x10\x20\x30\x80\x10\x20\x30\x80"))
	f.Add(uint8(0x8C), uint64(13), []byte("\x80\x50\x60\x70\x80\x50\x60\x70\x80\x50\x60\x70\x80"))
	f.Add(uint8(0x8C), uint64(12), []byte("\x80\x90\xa0\xb0\x80\x90\xa0\xb0\x80\x90\xa0\xb0\x80"))
	// hRP/FIFO over a write-back FIFO L2: two rounds of stores to all 32
	// lines; an L2 set that hRP gives more than four lines evicts its
	// oldest, owned line before the line's store of the second round.
	var rounds []byte
	for r := 0; r < 2; r++ {
		for g := byte(0); g < 64; g += 2 {
			rounds = append(rounds, 0x80|g)
		}
	}
	f.Add(uint8(0x93), uint64(8), rounds)
	// Modulo/Random: loads and fetches sweep lines 0, 8 and 16 in turn,
	// Ways+1 lines over L1 set 0 (synth20k's five lines over four ways,
	// at this geometry), so a fill may evict a line whose next read the
	// replay must mark; under a write-through L2, and under a write-back
	// one, with store elision on.
	for _, sel := range []uint8{0x0A, 0x8C} {
		f.Add(sel, uint64(14), []byte(strings.Repeat("\x40\x00\x50\x10\x60\x20", 12)))
	}
	// Modulo/LRU over a write-back LRU L2, the baseline's arrangement
	// (0x82), where the certainty rule skips middle stores: line 0 loaded
	// and stored to four times; lines 0, 8 and 16 over DL1 set 0's two
	// ways, with stores to line 0 and to line 1, alone in its set, between
	// them, and with stores to line 0 before and after its first read;
	// five IDs in L2 set 0 (data lines 0 and 16, fetched lines 8, 16 and
	// 24); a line only stored to; stores before line 0's first read; a
	// single store and a pair; stores after the last read; stores to both
	// granules of line 0, whose relocation is rebuilt; and one address
	// fetched, loaded and stored to.
	for _, data := range []string{
		"\x40\x80\x80\x80\x80",
		"\x40\x50\x60\x42\x80\x82\x80\x82\x80\x82",
		"\x80\x80\x80\x40\x50\x60\x80\x80\x40",
		"\x40\x80\x10\x20\x30\xa0\x80\x80\x80\x42\x82\x82\x82",
		"\x86\x86\x86\x86",
		"\x80\x80\x80\x40\x80\x80",
		"\x40\x80\x40\x42\x82\x82",
		"\x40\x42\x80\x80\x80\x80\x42",
		"\x40\x81\x80\x81\x80\x81\x80\x44\x84\x84\x84",
		"\x04\x44\x84\x84\x84\x44",
	} {
		f.Add(uint8(0x82), uint64(15), []byte(data))
	}
	// The baseline's arrangement with DL1 set 0 over-full, which the LRU
	// pass classifies: loads sweeping lines 0, 8 and 16; the same with a
	// store hit restamping line 0 before each load of line 16; lines 0,
	// 8, 16 and 24 swept after a fetch of line 0, five IDs over L2 set
	// 0's four ways, so every miss reaches the L2; and a store to line 8
	// before the sweep, its first L2 access.
	for _, data := range []string{
		strings.Repeat("\x40\x50\x60", 10),
		strings.Repeat("\x40\x50\x80\x60", 8),
		"\x00" + strings.Repeat("\x40\x50\x60\x70", 8),
		"\x90" + strings.Repeat("\x40\x50\x60", 10),
	} {
		f.Add(uint8(0x82), uint64(16), []byte(data))
	}
	hog := streamTrace(1<<20, 600)
	f.Fuzz(func(t *testing.T, sel uint8, seed uint64, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		tr := fuzzTrace(data)
		cfg := fuzzConfig(sel)
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		core, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := trace.Compile(tr, 64)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := workload.FromTrace("fuzz", "", tr).Relocatable(workload.BaselineLayout(), 64)
		if err != nil {
			t.Fatal(err)
		}
		relocated := rel.Relocate(workload.BaselineLayout())
		if !sameCompiled(relocated, ct) {
			t.Fatalf("sel %#x: the relocated form is not the compiled one", sel)
		}
		half := tr[len(tr)/2:]
		ctHalf, err := trace.Compile(half, 64)
		if err != nil {
			t.Fatal(err)
		}
		for run, c := range []*trace.Compiled{ct, ct, ct, relocated, relocated, ctHalf} {
			switch run {
			case 0, 1:
				s := prng.Derive(seed, run)
				ref.Reseed(s)
				core.Reseed(s)
			case 4:
				ref.Flush()
				core.Flush()
			}
			src := tr
			if c == ctHalf {
				src = half
			}
			if got, want := core.RunCompiled(c), ref.Run(src); got != want {
				t.Fatalf("sel %#x run %d: compiled %+v, reference %+v", sel, run, got, want)
			}
			sameCacheState(t, core, ref)
		}

		a, err := NewSystem(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewSystem(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		hogCT := compileAll(t, 64, hog)[0]
		a.Reseed(seed)
		b.Reseed(seed)
		got := a.RunAll([]*trace.Compiled{ct, hogCT})
		want := b.RunAll([]*trace.Compiled{compileUnfolded(t, tr, 64), hogCT})
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("sel %#x RunAll core %d: folded %+v, unfolded %+v", sel, i, got[i], want[i])
			}
		}
	})
}
