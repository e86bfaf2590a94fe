package workload

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/sim"
	"repro/internal/trace"
)

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

// checkRelocation compiles w relocatably at base and checks it
// (checkRelocated) at base itself and at the layout RandomizedLayoutFrom
// draws from seed.
func checkRelocation(t *testing.T, w Workload, base Layout, lineBytes int, seed uint64) {
	t.Helper()
	rel, err := w.Relocatable(base, lineBytes)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	for _, l := range []Layout{base, RandomizedLayoutFrom(base, prng.New(seed))} {
		checkRelocated(t, w, rel, l, seed)
	}
}

// checkRelocated checks that rel, w's relocatable form, relocates to l
// as trace.Compile of a fresh build at l, field for field (ops, line
// tables, access count and line size), and that both replay alike on
// cores reseeded with seed. It returns the relocated trace.
func checkRelocated(t *testing.T, w Workload, rel *Relocatable, l Layout, seed uint64) *trace.Compiled {
	t.Helper()
	got := rel.Relocate(l)
	want, err := trace.Compile(w.Build(l), rel.lineBytes)
	if err != nil {
		t.Fatal(err)
	}
	where := fmt.Sprintf("%s (%d B lines, layout %+v)", w.Name, rel.lineBytes, l)
	switch {
	case !slices.Equal(got.Ops, want.Ops):
		t.Fatalf("%s: %d ops relocated, %d rebuilt, or they differ", where, len(got.Ops), len(want.Ops))
	case !slices.Equal(got.ILines, want.ILines) || !slices.Equal(got.DLines, want.DLines):
		t.Fatalf("%s: line tables of %d and %d lines relocated, %d and %d rebuilt, or they differ",
			where, len(got.ILines), len(got.DLines), len(want.ILines), len(want.DLines))
	case got.Accesses != want.Accesses || got.LineBytes != want.LineBytes:
		t.Fatalf("%s: relocated %d accesses of %d B lines, rebuilt %d of %d B",
			where, got.Accesses, got.LineBytes, want.Accesses, want.LineBytes)
	}
	a, b := replayCore(t, rel.lineBytes), replayCore(t, rel.lineBytes)
	a.Reseed(seed)
	b.Reseed(seed)
	if rg, rw := a.RunCompiled(got), b.RunCompiled(want); rg != rw {
		t.Fatalf("%s: relocated replay %+v, rebuilt %+v", where, rg, rw)
	}
	return got
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

// TestRelocateRebuildsAliasingLayouts pins when Relocate rebuilds. At
// 32 B lines, the platform's, every built-in kernel relocated from
// BaselineLayout to DefaultLayout and to randomized baseline layouts
// keeps its IDs on distinct lines, so it shares the relocatable form's
// ops. A layout that puts tblook01's table on its result buffer, and
// 64 B lines over accesses to both 32 B granules of a line, would give
// two IDs one line: Relocate returns the rebuilt trace instead, which
// checkRelocated holds to trace.Compile of a fresh build.
func TestRelocateRebuildsAliasingLayouts(t *testing.T) {
	shared := func(rel *Relocatable, ct *trace.Compiled) bool { return &ct.Ops[0] == &rel.ops[0] }
	layouts := []Layout{DefaultLayout()}
	for i := 0; i < 8; i++ {
		layouts = append(layouts, RandomizedLayoutFrom(BaselineLayout(), prng.New(prng.Derive(0xD15, i))))
	}
	for _, w := range append(EEMBC(), Synthetic(20*1024, 2, 4)) {
		rel, err := w.Relocatable(BaselineLayout(), LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range layouts {
			if !shared(rel, rel.Relocate(l)) {
				t.Errorf("%s layout %d: rebuilt, so two IDs would share a 32 B line", w.Name, i)
			}
		}
	}
	tblook, err := ByName("tblook01")
	if err != nil {
		t.Fatal(err)
	}
	aliasing := BaselineLayout()
	aliasing.Table = aliasing.Data
	granules := FromTrace("granules", "", trace.Trace{{Addr: 0, Kind: trace.Load}, {Addr: 32, Kind: trace.Load},
		{Addr: 32, Kind: trace.Store}, {Addr: 0, Kind: trace.Load}, {Addr: 96, Kind: trace.Fetch}, {Addr: 64, Kind: trace.Fetch}})
	for _, tc := range []struct {
		w         Workload
		l         Layout
		lineBytes int
	}{{tblook, aliasing, LineBytes}, {granules, BaselineLayout(), 64}} {
		rel, err := tc.w.Relocatable(BaselineLayout(), tc.lineBytes)
		if err != nil {
			t.Fatal(err)
		}
		if ct := checkRelocated(t, tc.w, rel, tc.l, 7); shared(rel, ct) {
			t.Errorf("%s: relocated over the shared ops, which give two IDs one line", tc.w.Name)
		}
	}
}

// TestRelocateSharesReplayTables pins that the relocations of one
// Relocatable share the replay tables it built once: two relocations of
// tblook01 to different randomized baseline layouts return the same
// Index and Ops, while the rebuild of a layout that puts its table on
// its result buffer has tables of its own.
func TestRelocateSharesReplayTables(t *testing.T) {
	w, err := ByName("tblook01")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := w.Relocatable(BaselineLayout(), LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(i int) *trace.Compiled {
		return rel.Relocate(RandomizedLayoutFrom(BaselineLayout(), prng.New(prng.Derive(0x7AB, i))))
	}
	a, b := draw(0), draw(1)
	if slices.Equal(a.DLines, b.DLines) {
		t.Fatal("the two randomized layouts relocate to the same data lines")
	}
	if a.Index == nil || a.Index != b.Index || &a.Ops[0] != &b.Ops[0] {
		t.Errorf("two relocations have tables %p and %p, ops at %p and %p; want one shared set", a.Index, b.Index, &a.Ops[0], &b.Ops[0])
	}
	aliasing := BaselineLayout()
	aliasing.Table = aliasing.Data
	if c := rel.Relocate(aliasing); c.Index == nil || c.Index == a.Index {
		t.Errorf("the aliasing layout's rebuild has tables %p, want its own (shared %p)", c.Index, a.Index)
	}
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
// layout, line size and run-layout seed: the relocated trace must equal
// trace.Compile(w.Build(layout)) field for field and replay alike. It
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
