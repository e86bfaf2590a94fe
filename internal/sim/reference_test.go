package sim

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// Flush empties all levels without changing seeds, so a test can start
// a run cold on the current mapping.
func (c *Core) Flush() {
	c.il1.Flush()
	c.dl1.Flush()
	c.l2.Flush()
}

// Run replays a byte-address trace one access at a time, consulting each
// level's placement policy per access instead of through an index plan.
// It is the tests' reference for RunCompiled: the kernels are shared, so
// comparing the two pins the index plans, their reuse across reseeds and
// the compiled line numbering. The kernels themselves are pinned against
// the per-address cache model by the cache package's fuzz and
// differential tests.
func (c *Core) Run(tr trace.Trace) Result {
	shift := uint(bits.TrailingZeros(uint(c.lineBytes)))
	ip, dp, lp := c.il1.Policy(), c.dl1.Policy(), c.l2.Policy()
	k1, kd, k2 := c.kil1, c.kdl1, c.kl2
	k1.Begin()
	kd.Begin()
	k2.Begin()
	var cycles uint64
	l2Read := func(la uint64) uint64 {
		cycles := uint64(l2Hit)
		b, _ := k2.Read(la, lp.Index(la))
		if b&cache.BitHit == 0 {
			cycles += memLatency
		}
		if b&cache.BitWriteback != 0 {
			cycles += writeback
		}
		return cycles
	}
	for _, a := range tr {
		la := a.Addr >> shift
		switch a.Kind {
		case trace.Fetch:
			cycles += l1Hit
			if b, _ := k1.Read(la, ip.Index(la)); b&cache.BitHit == 0 {
				cycles += l2Read(la)
			}
		case trace.Load:
			cycles += l1Hit
			if b, _ := kd.Read(la, dp.Index(la)); b&cache.BitHit == 0 {
				cycles += l2Read(la)
			}
		default: // Store
			cycles += l1Hit + storeBus
			kd.Write(la, dp.Index(la)) // write-through: updates line if present
			b, _ := k2.Write(la, lp.Index(la))
			if b&cache.BitFilled != 0 {
				cycles += memLatency // write-allocate fill
			}
			if b&cache.BitWriteback != 0 {
				cycles += writeback
			}
		}
	}
	return Result{
		Cycles:   cycles,
		Accesses: len(tr),
		IL1:      k1.End(),
		DL1:      kd.End(),
		L2:       k2.End(),
	}
}

// compileAll compiles one trace per core for System.RunAll, keeping nil
// entries nil (idle cores).
func compileAll(t testing.TB, lineBytes int, traces ...trace.Trace) []*trace.Compiled {
	t.Helper()
	cts := make([]*trace.Compiled, len(traces))
	for i, tr := range traces {
		if tr == nil {
			continue
		}
		ct, err := trace.Compile(tr, lineBytes)
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}
	return cts
}

// compileUnfolded is trace.Compile without the fold: the same line tables
// and one op per access in trace order, every Rep and Trail zero. It is
// the oracle of the folded format: replaying either must give the same
// Result, single-core and under the shared bus.
func compileUnfolded(t testing.TB, tr trace.Trace, lineBytes int) *trace.Compiled {
	t.Helper()
	ct, err := trace.Compile(tr, lineBytes)
	if err != nil {
		t.Fatal(err)
	}
	ids := [2]map[uint64]uint32{{}, {}}
	for s, lines := range [2][]uint64{ct.ILines, ct.DLines} {
		for id, la := range lines {
			ids[s][la] = uint32(id)
		}
	}
	shift := uint(bits.TrailingZeros(uint(lineBytes)))
	ops := make([]trace.Op, len(tr))
	for i, a := range tr {
		s := 1
		if a.Kind == trace.Fetch {
			s = 0
		}
		ops[i] = trace.Op{ID: ids[s][a.Addr>>shift], Kind: a.Kind}
	}
	return &trace.Compiled{Ops: ops, ILines: ct.ILines, DLines: ct.DLines, LineBytes: lineBytes, Accesses: len(tr)}
}

// sameCacheState fails the test unless every level of got holds the
// state of the same level of want: contents, dirty bits, replacement
// stamps and tick, PLRU bits, replacement stream, cold flag and
// counters. Equal Results alone would miss state a skipped or folded hit
// should have left and no later run has exposed yet. The placement
// policy is left out: Run's per-access Index memoizes differently from
// IndexAll, and its seed shows in every later mapping anyway.
func sameCacheState(t testing.TB, got, want *Core) {
	t.Helper()
	for _, l := range []struct {
		name string
		a, b *cache.Cache
	}{{"IL1", got.il1, want.il1}, {"DL1", got.dl1, want.dl1}, {"L2", got.l2, want.l2}} {
		a, b := reflect.ValueOf(l.a).Elem(), reflect.ValueOf(l.b).Elem()
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i).Name
			if f == "pol" {
				continue
			}
			fa, fb := a.Field(i), b.Field(i)
			if fa.Kind() == reflect.Pointer {
				fa, fb = fa.Elem(), fb.Elem()
			}
			if x, y := fmt.Sprint(fa), fmt.Sprint(fb); x != y {
				t.Fatalf("%s.%s is %s, the reference's %s", l.name, f, x, y)
			}
		}
	}
}
