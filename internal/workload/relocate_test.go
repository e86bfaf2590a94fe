package workload

import (
	"errors"
	"math/bits"
	"testing"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// streamLines expands c into the line-address sequence of each stream
// (0 = fetches, 1 = loads and stores), one entry per access, with the
// kind of each.
func streamLines(c *trace.Compiled) [2][]trace.Access {
	var out [2][]trace.Access
	for _, op := range c.Ops {
		s, la := 1, uint64(0)
		if op.Kind == trace.Fetch {
			s, la = 0, c.ILines[op.ID]
		} else {
			la = c.DLines[op.ID]
		}
		for r := 0; r <= int(op.Rep); r++ {
			out[s] = append(out[s], trace.Access{Addr: la, Kind: op.Kind})
		}
	}
	return out
}

// replayCore builds a small RM/Random hierarchy at lineBytes, so the
// replay comparison sees misses, evictions and writebacks.
func replayCore(t *testing.T, lineBytes int) *sim.Core {
	t.Helper()
	mk := func(name string, size int, w cache.WritePolicy) cache.Config {
		return cache.Config{
			Name: name, SizeBytes: size, Ways: 4, LineBytes: lineBytes,
			Placement: placement.RM, Replacement: cache.Random, Write: w,
		}
	}
	c, err := sim.New(sim.Config{
		IL1: mk("IL1", 64*lineBytes, cache.WriteThrough),
		DL1: mk("DL1", 64*lineBytes, cache.WriteThrough),
		L2:  mk("L2", 512*lineBytes, cache.WriteBack),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkRelocation compiles w relocatably at base and checks that, at base
// itself and at the layout RandomizedLayoutFrom draws from seed, the
// relocated trace replays like trace.Compile of a fresh build at that
// layout: per stream the same sequence of kinds and line addresses, the
// same access count, and the same replay Result on a core reseeded alike.
// The ops themselves may differ: relocation numbers granules, not lines,
// so where two IDs share a line they fold apart. A relocated trace that
// reports DistinctLines must have no line twice in a stream.
func checkRelocation(t *testing.T, w Workload, base Layout, lineBytes int, seed uint64) {
	t.Helper()
	rel, err := w.Relocatable(base, lineBytes)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	a, b := replayCore(t, lineBytes), replayCore(t, lineBytes)
	for _, l := range []Layout{base, RandomizedLayoutFrom(base, prng.New(seed))} {
		got := rel.Relocate(l)
		want, err := trace.Compile(w.Build(l), lineBytes)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() || got.LineBytes != want.LineBytes {
			t.Fatalf("%s: relocated %d accesses of %d B lines, rebuilt %d of %d B",
				w.Name, got.Len(), got.LineBytes, want.Len(), want.LineBytes)
		}
		gs, ws := streamLines(got), streamLines(want)
		for s := range gs {
			if len(gs[s]) != len(ws[s]) {
				t.Fatalf("%s: stream %d has %d accesses relocated, %d rebuilt", w.Name, s, len(gs[s]), len(ws[s]))
			}
			for i := range gs[s] {
				if gs[s][i] != ws[s][i] {
					t.Fatalf("%s (%d B lines, layout %+v): stream %d access %d relocated to %v line %#x, rebuilt %v line %#x",
						w.Name, lineBytes, l, s, i, gs[s][i].Kind, gs[s][i].Addr, ws[s][i].Kind, ws[s][i].Addr)
				}
			}
		}
		if got.DistinctLines() && !(distinctLines(got.ILines) && distinctLines(got.DLines)) {
			t.Fatalf("%s (%d B lines, layout %+v): DistinctLines reported, but two IDs share a line", w.Name, lineBytes, l)
		}
		a.Reseed(seed)
		b.Reseed(seed)
		if rg, rw := a.RunCompiled(got), b.RunCompiled(want); rg != rw {
			t.Fatalf("%s (%d B lines, layout %+v): relocated replay %+v, rebuilt %+v", w.Name, lineBytes, l, rg, rw)
		}
	}
}

// TestRelocateMatchesCompile covers every workload, a captured trace,
// line sizes around the layout's 32-byte step, and an unaligned base
// whose Data and Table objects overlap.
func TestRelocateMatchesCompile(t *testing.T) {
	overlap := BaselineLayout()
	overlap.Data += 4
	overlap.Table = overlap.Data + 0x404
	overlap.Scatter[1] = 20
	ws := append(EEMBC(), Synthetic(8*1024, 2, 4), Synthetic(160*1024, 1, 4))
	a2, _ := ByName("a2time01")
	ws = append(ws, FromTrace("captured", "", a2.Build(DefaultLayout())))
	for _, w := range ws {
		for _, lb := range []int{1, 16, 32, 64, 128} {
			for _, base := range []Layout{BaselineLayout(), overlap} {
				checkRelocation(t, w, base, lb, uint64(lb))
			}
		}
	}
}

// TestRelocateCertifiesDistinctLines holds Relocate's DistinctLines to
// an exact check of each stream's line table (distinctLines, a map of
// its lines): every built-in kernel relocated from BaselineLayout to
// DefaultLayout and to randomized baseline layouts, at line sizes 16 to
// 128 B. At 32 B, the platform's line, every one of those layouts keeps
// its lines distinct, so the faster replay rules apply to them. A layout
// that puts tblook01's table on its result buffer gives two IDs one line
// and reports false.
func TestRelocateCertifiesDistinctLines(t *testing.T) {
	layouts := []Layout{DefaultLayout()}
	for i := 0; i < 8; i++ {
		layouts = append(layouts, RandomizedLayoutFrom(BaselineLayout(), prng.New(prng.Derive(0xD15, i))))
	}
	for _, w := range append(EEMBC(), Synthetic(20*1024, 2, 4)) {
		for _, lb := range []int{16, 32, 64, 128} {
			rel, err := w.Relocatable(BaselineLayout(), lb)
			if err != nil {
				t.Fatal(err)
			}
			for i, l := range layouts {
				ct := rel.Relocate(l)
				want := distinctLines(ct.ILines) && distinctLines(ct.DLines)
				if ct.DistinctLines() != want {
					t.Fatalf("%s (%d B lines, layout %d): DistinctLines %v, the exact check %v", w.Name, lb, i, ct.DistinctLines(), want)
				}
				if lb == LineBytes && !want {
					t.Errorf("%s layout %d: two IDs share a 32 B line", w.Name, i)
				}
			}
		}
	}
	w, err := ByName("tblook01")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := w.Relocatable(BaselineLayout(), LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	aliasing := BaselineLayout()
	aliasing.Table = aliasing.Data
	if ct := rel.Relocate(aliasing); ct.DistinctLines() || distinctLines(ct.DLines) {
		t.Fatalf("aliasing layout: DistinctLines %v, exact check %v, want both false", ct.DistinctLines(), distinctLines(ct.DLines))
	}
}

// distinctLines reports whether lines holds no value twice.
func distinctLines(lines []uint64) bool {
	seen := map[uint64]bool{}
	for _, l := range lines {
		if seen[l] {
			return false
		}
		seen[l] = true
	}
	return true
}

// TestRelocatableRejectsLayoutDependentTraces pins the Build contract's
// enforcement: a trace whose length, kinds or address arithmetic depends
// on the layout, a field used twice or three times in one address
// included, fails with a *RelocationError.
func TestRelocatableRejectsLayoutDependentTraces(t *testing.T) {
	cases := []Workload{
		{Name: "length", Build: func(l Layout) trace.Trace {
			return make(trace.Trace, 100+bits.OnesCount64(l.Code))
		}},
		{Name: "kind", Build: func(l Layout) trace.Trace {
			return trace.Trace{{Addr: l.Data, Kind: trace.Kind(bits.OnesCount64(l.Data) & 1)}}
		}},
		{Name: "address", Build: func(l Layout) trace.Trace {
			return trace.Trace{{Addr: l.Data}, {Addr: l.Code / 2}}
		}},
		// A field counted twice or three times would otherwise read as
		// another field set and relocate to the wrong line.
		{Name: "doubled", Build: func(l Layout) trace.Trace {
			return trace.Trace{{Addr: l.Code}, {Addr: l.Data + l.Data, Kind: trace.Load}}
		}},
		{Name: "tripled", Build: func(l Layout) trace.Trace {
			return trace.Trace{{Addr: 3*l.Table + l.Pool, Kind: trace.Store}}
		}},
	}
	for _, w := range cases {
		_, err := w.Relocatable(DefaultLayout(), LineBytes)
		var re *RelocationError
		if !errors.As(err, &re) || re.Workload != w.Name {
			t.Errorf("%s: err = %v, want a *RelocationError naming the workload", w.Name, err)
		}
	}
}

// TestWalkRejectsRepeatedFields pins the walk's own check: a built-in
// kernel body that adds one field to an address twice, or three times,
// fails with a *RelocationError.
func TestWalkRejectsRepeatedFields(t *testing.T) {
	for name, addr := range map[string]func(l Layout) uint64{
		"doubled": func(l Layout) uint64 { return l.Data + l.Data },
		"tripled": func(l Layout) uint64 { return 3*l.Table + l.Pool },
	} {
		p := &program{name: name, accesses: 2, body: func(k *kernel) {
			k.load(addr(k.l))
			k.loopIter(0, 1)
		}}
		_, err := p.workload("").Relocatable(DefaultLayout(), LineBytes)
		var re *RelocationError
		if !errors.As(err, &re) || re.Workload != name {
			t.Errorf("%s: err = %v, want a *RelocationError naming the workload", name, err)
		}
	}
}

// relocateInput is one FuzzRelocate input: a kernel, a base layout whose
// Scatter slot k sits at scatter*k, a line size of 1<<(lineLog%8) bytes
// and a run-layout seed.
type relocateInput struct {
	kernel                                  uint8
	code, data, table, stack, pool, scatter uint64
	lineLog                                 uint8
	seed                                    uint64
}

func (in relocateInput) layout() Layout {
	l := Layout{Code: in.code, Data: in.data, Table: in.table, Stack: in.stack, Pool: in.pool}
	for k := range l.Scatter {
		l.Scatter[k] = in.scatter * uint64(k)
	}
	return l
}

// relocateSeeds are FuzzRelocate's seed inputs.
func relocateSeeds() []relocateInput {
	d := BaselineLayout()
	return []relocateInput{
		{9, d.Code, d.Data, d.Table, d.Stack, d.Pool, 0, 5, 1},
		{0, d.Code, d.Data + 4, d.Data + 0x404, d.Stack, d.Pool, 20, 6, 2},
		// Wraparound: a base Code near 2^64 and a Stack that grows below 0.
		{6, ^uint64(0) - 100, d.Data, d.Table, 2, d.Pool, 1664, 6, 3},
	}
}

// FuzzRelocate checks relocation against a full rebuild for a fuzzed base
// layout, line size and run-layout seed: each stream must touch the lines
// trace.Compile(w.Build(layout)) gives it, in order, and replay alike. It
// also checks the kernel's relocation walk against the two-build path.
func FuzzRelocate(f *testing.F) {
	for _, in := range relocateSeeds() {
		f.Add(in.kernel, in.code, in.data, in.table, in.stack, in.pool, in.scatter, in.lineLog, in.seed)
	}
	ws := append(EEMBC(), Synthetic(8*1024, 2, 4))
	f.Fuzz(func(t *testing.T, kernel uint8, code, data, table, stack, pool, scatter uint64, lineLog uint8, seed uint64) {
		in := relocateInput{kernel, code, data, table, stack, pool, scatter, lineLog, seed}
		w := ws[int(kernel)%len(ws)]
		checkRelocation(t, w, in.layout(), 1<<(lineLog%8), seed)
		checkWalk(t, w, in.layout(), 1<<(lineLog%8))
	})
}
