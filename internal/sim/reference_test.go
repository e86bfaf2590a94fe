package sim

import (
	"math/bits"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

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
	lat := c.lat
	l2Read := func(la uint64) uint64 {
		cycles := lat.L2Hit
		b := k2.Read(la, lp.Index(la))
		if b&cache.BitHit == 0 {
			cycles += lat.Memory
		}
		if b&cache.BitWriteback != 0 {
			cycles += lat.Writeback
		}
		return cycles
	}
	for _, a := range tr {
		la := a.Addr >> shift
		switch a.Kind {
		case trace.Fetch:
			cycles += lat.L1Hit
			if k1.Read(la, ip.Index(la))&cache.BitHit == 0 {
				cycles += l2Read(la)
			}
		case trace.Load:
			cycles += lat.L1Hit
			if kd.Read(la, dp.Index(la))&cache.BitHit == 0 {
				cycles += l2Read(la)
			}
		default: // Store
			cycles += lat.L1Hit + lat.StoreBus
			kd.Write(la, dp.Index(la)) // write-through: updates line if present
			b := k2.Write(la, lp.Index(la))
			if b&cache.BitFilled != 0 {
				cycles += lat.Memory // write-allocate fill
			}
			if b&cache.BitWriteback != 0 {
				cycles += lat.Writeback
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
