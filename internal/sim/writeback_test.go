package sim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/trace"
)

// TestL2WritebackCycleAccounting forces dirty L2 victims and checks that
// the writeback charge lands in the cycle count.
func TestL2WritebackCycleAccounting(t *testing.T) {
	cfg := paperConfig(placement.Modulo)
	// A deterministic L2 so the way-strided addresses below stay in one set.
	cfg.L2.Placement = placement.Modulo
	cfg.L2.Replacement = cache.LRU
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lat := DefaultLatencies()

	// Dirty one L2 set's worth of lines via stores (write-allocate in L2),
	// then displace them with reads mapping to the same L2 set.
	l2WayBytes := uint64(cfg.L2.WaySizeBytes()) // 32KB: stride keeping the L2 set fixed
	b := trace.NewBuilder(0)
	for i := uint64(0); i < 4; i++ {
		b.Store(i * l2WayBytes) // fill + dirty all 4 ways of L2 set 0
	}
	for i := uint64(4); i < 8; i++ {
		b.Load(i * l2WayBytes) // displace the dirty lines
	}
	r := c.Run(b.Trace())
	if r.L2.Writebacks == 0 {
		t.Fatal("no L2 writebacks recorded")
	}
	// Expected: 4 stores (miss: L1 charge + StoreBus + Memory fill),
	// 4 loads (L1 miss: L1 + L2Hit + Memory + Writeback each, since every
	// displaced victim is dirty).
	want := 4*(lat.L1Hit+lat.StoreBus+lat.Memory) +
		4*(lat.L1Hit+lat.L2Hit+lat.Memory+lat.Writeback)
	if r.Cycles != want {
		t.Fatalf("cycles = %d, want %d (writebacks %d)", r.Cycles, want, r.L2.Writebacks)
	}
}

// TestWriteThroughL1NeverDirty checks the safety-critical design point:
// L1 lines never carry dirty state, so an L1 flush can never lose data.
// A dirty L1 line would surface as an L1 writeback when the store-and-load
// mix below (twice the DL1 capacity) evicts it; none may occur.
func TestWriteThroughL1NeverDirty(t *testing.T) {
	c, err := New(paperConfig(placement.RM))
	if err != nil {
		t.Fatal(err)
	}
	c.Reseed(3)
	b := trace.NewBuilder(0)
	for i := 0; i < 5000; i++ {
		b.Store(uint64(i*64) % (32 * 1024))
		b.Load(uint64(i*32) % (32 * 1024))
	}
	r := c.Run(b.Trace())
	if r.DL1.Evictions == 0 {
		t.Fatal("no DL1 evictions: the trace does not pressure the L1")
	}
	if r.IL1.Writebacks != 0 || r.DL1.Writebacks != 0 {
		t.Fatalf("write-through L1 wrote back dirty lines: IL1=%d DL1=%d",
			r.IL1.Writebacks, r.DL1.Writebacks)
	}
}

// TestSystemSingleCoreMatchesNoContention checks that a 1-core system and
// a 4-core system with idle peers charge the subject the same cycles.
func TestSystemSingleCoreMatchesNoContention(t *testing.T) {
	b := trace.NewBuilder(0)
	for i := 0; i < 8000; i++ {
		b.Load(uint64(i*32) % (64 * 1024))
	}
	tr := b.Trace()

	one, err := NewSystem(paperConfig(placement.RM), 1)
	if err != nil {
		t.Fatal(err)
	}
	one.Reseed(9)
	r1 := one.RunAll(compileAll(t, 32, tr))

	four, err := NewSystem(paperConfig(placement.RM), 4)
	if err != nil {
		t.Fatal(err)
	}
	four.Reseed(9)
	r4 := four.RunAll(compileAll(t, 32, tr, nil, nil, nil))

	if r1[0].Cycles != r4[0].Cycles {
		t.Fatalf("idle peers changed timing: %d vs %d", r1[0].Cycles, r4[0].Cycles)
	}
}

// TestSystemFairness checks that four identical workloads finish within a
// reasonable band of each other under round-robin arbitration.
func TestSystemFairness(t *testing.T) {
	sys, err := NewSystem(paperConfig(placement.RM), 4)
	if err != nil {
		t.Fatal(err)
	}
	sys.Reseed(4)
	mk := func(base uint64) trace.Trace {
		b := trace.NewBuilder(0)
		for i := 0; i < 10000; i++ {
			b.Load(base + uint64(i*32)%(128*1024))
		}
		return b.Trace()
	}
	res := sys.RunAll(compileAll(t, 32, mk(0), mk(1<<26), mk(2<<26), mk(3<<26)))
	lo, hi := res[0].Cycles, res[0].Cycles
	for _, r := range res[1:] {
		if r.Cycles < lo {
			lo = r.Cycles
		}
		if r.Cycles > hi {
			hi = r.Cycles
		}
	}
	if float64(hi) > 1.25*float64(lo) {
		t.Fatalf("unfair arbitration: fastest %d, slowest %d", lo, hi)
	}
}

// TestStoreHeavyWorkloadAccounting checks stores hit the write-through
// path counters coherently across levels.
func TestStoreHeavyWorkloadAccounting(t *testing.T) {
	c, err := New(paperConfig(placement.Modulo))
	if err != nil {
		t.Fatal(err)
	}
	b := trace.NewBuilder(0)
	const n = 1000
	for i := 0; i < n; i++ {
		b.Store(uint64(i*32) % 4096) // 128 lines, repeatedly stored
	}
	r := c.Run(b.Trace())
	if r.DL1.Accesses != n {
		t.Fatalf("DL1 saw %d accesses", r.DL1.Accesses)
	}
	if r.L2.Accesses != n {
		t.Fatalf("L2 saw %d store propagations, want %d (write-through)", r.L2.Accesses, n)
	}
	// 128 distinct lines allocate in L2 once; the rest hit.
	if r.L2.Misses != 128 {
		t.Fatalf("L2 store misses = %d, want 128", r.L2.Misses)
	}
}
