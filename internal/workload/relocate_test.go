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
// so where two IDs share a line they fold apart.
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

// FuzzRelocate checks relocation against a full rebuild for a fuzzed base
// layout, line size and run-layout seed: each stream must touch the lines
// trace.Compile(w.Build(layout)) gives it, in order, and replay alike.
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
