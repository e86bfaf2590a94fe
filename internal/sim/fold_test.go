package sim

import (
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
// (applied to DL1 and L2 alike).
func fuzzConfig(sel uint8) Config {
	kinds := placement.Kinds()
	pk := kinds[int(sel)%len(kinds)]
	rk := []cache.ReplacementKind{cache.LRU, cache.Random, cache.FIFO, cache.PLRU}[int(sel>>3)%4]
	write := []cache.WritePolicy{cache.WriteThrough, cache.WriteBack}[int(sel>>5)%2]
	mk := func(name string, size, ways int, w cache.WritePolicy) cache.Config {
		return cache.Config{
			Name: name, SizeBytes: size, Ways: ways, LineBytes: 64,
			Placement: pk, Replacement: rk, Write: w,
		}
	}
	return Config{
		IL1: mk("IL1", 1024, 2, cache.WriteThrough),
		DL1: mk("DL1", 1024, 2, write),
		L2:  mk("L2", 2048, 4, write),
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
// without Reseed, a warm replay of the trace's relocated form, which
// numbers 32-byte granules, so the two granules of a 64-byte line get two
// IDs, each with its own plan entry and way hint, the relocated form
// again after a Flush, and a warm replay of the second half of the trace
// on the state the full trace left. The reseeded and flushed replays are
// cold, so under Random, FIFO and LRU they skip the reads their mapping
// makes certain hits; the warm ones must not. After every replay each
// level's state must equal the reference's too (sameCacheState), so an
// LRU restore that misses a stamp fails at once. Stale hints, deterministic plans
// reused across reseeds and two IDs on one line all occur. The shared-bus
// model must also give the folded and the unfolded Compiled the same
// Results against a streaming co-runner.
func FuzzCompiledReplay(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte("\x41\x41\x41\x01\x41\x81\x41\x00\x00\x50\x10\x50"))
	f.Add(uint8(0x2B), uint64(7), []byte("\x40\x00\x40\x00\x40\x80\x40\x10\x20\x30\x40\x50\x60\x70\x40"))
	f.Add(uint8(0x5E), uint64(42), []byte("\x00\x00\x00\x10\x10\x20\x20\x41\x41\x42\x42\x82\x82\x43\x43\x43\x10\x20"))
	// Modulo/LRU/write-back: two stores evict line 0 from its 2-way
	// DL1 set between two loads of it, so the second load must miss.
	f.Add(uint8(0x23), uint64(5), []byte("\x40\x90\xa0\x40"))
	// Loads alternating between the two granules of one line: Compile
	// folds them into one op, the relocated form keeps two IDs whose
	// hints go stale against each other.
	f.Add(uint8(0x33), uint64(3), []byte("\x44\x45\x44\x45\x45\x45\x04\x05\x04\x85\x44\x45"))
	// Modulo/Random/write-through no-allocate: loads alternating between
	// lines 0 and 8, two allocating lines in one DL1 set, so each may
	// evict the other and no later read may be skipped.
	f.Add(uint8(0x0A), uint64(2), []byte("\x40\x50\x40\x50\x40\x50\x40\x50\x40\x50\x40\x50"))
	// Modulo/FIFO: lines 0, 8 and 16 round-robin through one 2-way DL1
	// set, one line over the limit, so every load misses.
	f.Add(uint8(0x14), uint64(6), []byte("\x40\x50\x60\x40\x50\x60\x40\x50\x60"))
	// Line 0 loaded between stores to line 8 of its set: Modulo/Random
	// under write-through (the stores bypass DL1, line 0's later loads
	// are certain hits) and write-back (each store fills line 8 in and
	// may evict line 0), and Modulo/LRU under write-through, where a
	// stored-to level skips nothing.
	for _, sel := range []uint8{0x0A, 0x28, 0x41} {
		f.Add(sel, uint64(4), []byte("\x40\x90\x40\x90\x40\x90\x40\x90\x40\x90\x40"))
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
