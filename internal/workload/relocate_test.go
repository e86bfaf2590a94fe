package workload

import (
	"errors"
	"math/bits"
	"testing"

	"repro/internal/prng"
	"repro/internal/trace"
)

// lineOf returns the line address op touches in c.
func lineOf(c *trace.Compiled, op trace.Op) uint64 {
	if op.Kind == trace.Fetch {
		return c.ILines[op.ID]
	}
	return c.DLines[op.ID]
}

// checkRelocation compiles w relocatably at base and checks that, at base
// itself and at the layout RandomizedLayoutFrom draws from seed, every op
// touches the same line with the same kind as trace.Compile of a fresh
// build at that layout.
func checkRelocation(t *testing.T, w Workload, base Layout, lineBytes int, seed uint64) {
	t.Helper()
	rel, err := w.Relocatable(base, lineBytes)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	for _, l := range []Layout{base, RandomizedLayoutFrom(base, prng.New(seed))} {
		got := rel.Relocate(l)
		want, err := trace.Compile(w.Build(l), lineBytes)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Ops) != len(want.Ops) || got.LineBytes != want.LineBytes {
			t.Fatalf("%s: relocated %d ops of %d B lines, rebuilt %d of %d B",
				w.Name, len(got.Ops), got.LineBytes, len(want.Ops), want.LineBytes)
		}
		for i, op := range got.Ops {
			if op.Kind != want.Ops[i].Kind || lineOf(got, op) != lineOf(want, want.Ops[i]) {
				t.Fatalf("%s (%d B lines, layout %+v): op %d relocated to %v line %#x, rebuilt %v line %#x",
					w.Name, lineBytes, l, i, op.Kind, lineOf(got, op), want.Ops[i].Kind, lineOf(want, want.Ops[i]))
			}
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

// TestRelocatableRejectsLayoutDependentTraces pins the Build contract's
// enforcement: a trace whose length, kinds or address arithmetic depends
// on the layout fails with a *RelocationError.
func TestRelocatableRejectsLayoutDependentTraces(t *testing.T) {
	cases := []Workload{
		{Name: "length", Build: func(l Layout) trace.Trace {
			return make(trace.Trace, 100+bits.OnesCount64(l.Code))
		}},
		{Name: "kind", Build: func(l Layout) trace.Trace {
			return trace.Trace{{Addr: l.Data, Kind: trace.Kind(l.Data >> 41 & 1)}}
		}},
		{Name: "address", Build: func(l Layout) trace.Trace {
			return trace.Trace{{Addr: l.Data}, {Addr: l.Code / 2}}
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

// FuzzRelocate checks relocation against a full rebuild for a fuzzed base
// layout, line size and run-layout seed: every op must touch the line
// trace.Compile(w.Build(layout)) gives it.
func FuzzRelocate(f *testing.F) {
	d := BaselineLayout()
	f.Add(uint8(9), d.Code, d.Data, d.Table, d.Stack, d.Pool, uint64(0), uint8(5), uint64(1))
	f.Add(uint8(0), d.Code, d.Data+4, d.Data+0x404, d.Stack, d.Pool, uint64(20), uint8(6), uint64(2))
	// Wraparound: a base Code near 2^64 and a Stack that grows below 0.
	f.Add(uint8(6), ^uint64(0)-100, d.Data, d.Table, uint64(2), d.Pool, uint64(1664), uint8(6), uint64(3))
	ws := append(EEMBC(), Synthetic(8*1024, 2, 4))
	f.Fuzz(func(t *testing.T, kernel uint8, code, data, table, stack, pool, scatter uint64, lineLog uint8, seed uint64) {
		base := Layout{Code: code, Data: data, Table: table, Stack: stack, Pool: pool}
		for k := range base.Scatter {
			base.Scatter[k] = scatter * uint64(k)
		}
		checkRelocation(t, ws[int(kernel)%len(ws)], base, 1<<(lineLog%8), seed)
	})
}
