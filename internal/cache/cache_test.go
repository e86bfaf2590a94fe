package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/placement"
	"repro/internal/prng"
)

// dl1Config returns the paper's L1 geometry: 16KB, 4-way, 32B lines ->
// 128 sets, 4KB way (segment) size.
func dl1Config(p placement.Kind, r ReplacementKind) Config {
	return Config{
		Name:        "DL1",
		SizeBytes:   16 * 1024,
		Ways:        4,
		LineBytes:   32,
		Placement:   p,
		Replacement: r,
		Write:       WriteThrough,
	}
}

func TestGeometry(t *testing.T) {
	cfg := dl1Config(placement.Modulo, LRU)
	if cfg.Sets() != 128 {
		t.Fatalf("sets = %d, want 128", cfg.Sets())
	}
	if cfg.WaySizeBytes() != 4096 {
		t.Fatalf("way size = %d, want 4096 (the paper's cache segment)", cfg.WaySizeBytes())
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []Config{
		{Name: "z", SizeBytes: 0, Ways: 4, LineBytes: 32},
		{Name: "n", SizeBytes: 16384, Ways: 0, LineBytes: 32},
		{Name: "l", SizeBytes: 16384, Ways: 4, LineBytes: 24},
		{Name: "d", SizeBytes: 16384 + 32, Ways: 4, LineBytes: 32},
		{Name: "s", SizeBytes: 128, Ways: 2, LineBytes: 64}, // 1 set
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q validated", cfg.Name)
		}
	}
}

// TestValidateCapsPlanGeometry pins the two caps the packed index-plan
// entries rely on: at most 64 ways (the per-set bitmasks, and the 8-bit
// way hint) and at most MaxSets sets (the SetBits-bit set field).
// Validate alone is exercised, so no tag state is allocated.
func TestValidateCapsPlanGeometry(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string // "" = valid
	}{
		{Config{Name: "w64", SizeBytes: 64 * 32 * 2, Ways: 64, LineBytes: 32}, ""},
		{Config{Name: "w65", SizeBytes: 65 * 32 * 2, Ways: 65, LineBytes: 32}, "ways"},
		{Config{Name: "s24", SizeBytes: MaxSets, Ways: 1, LineBytes: 1}, ""},
		{Config{Name: "s25", SizeBytes: 2 * MaxSets, Ways: 1, LineBytes: 1}, "sets exceeds"},
		{Config{Name: "s25w", SizeBytes: 2 * MaxSets * 4 * 32, Ways: 4, LineBytes: 32}, "sets exceeds"},
	} {
		err := c.cfg.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.cfg.Name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want one mentioning %q", c.cfg.Name, err, c.want)
		}
	}
}

func TestNewRejectsPLRUOddWays(t *testing.T) {
	cfg := Config{Name: "x", SizeBytes: 3 * 2 * 32 * 64, Ways: 3, LineBytes: 32, Replacement: PLRU}
	if _, err := New(cfg); err == nil {
		t.Fatal("PLRU with 3 ways accepted")
	}
}

func TestStringers(t *testing.T) {
	if LRU.String() != "LRU" || Random.String() != "Random" || FIFO.String() != "FIFO" || PLRU.String() != "PLRU" {
		t.Fatal("replacement stringer wrong")
	}
	if WriteThrough.String() != "write-through" || WriteBack.String() != "write-back" {
		t.Fatal("write policy stringer wrong")
	}
	if ReplacementKind(9).String() == "" {
		t.Fatal("unknown replacement stringer empty")
	}
}

func TestColdMissThenHit(t *testing.T) {
	c, err := newRef(dl1Config(placement.Modulo, LRU))
	if err != nil {
		t.Fatal(err)
	}
	if r := c.Read(0x1000); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Read(0x1000); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Read(0x101F); !r.Hit {
		t.Fatal("same-line access missed")
	}
	if r := c.Read(0x1020); r.Hit {
		t.Fatal("next-line access hit")
	}
	st := c.stats
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// 4-way set: fill with A,B,C,D, touch A, insert E -> B (the LRU) must go.
	c, err := newRef(dl1Config(placement.Modulo, LRU))
	if err != nil {
		t.Fatal(err)
	}
	way := uint64(4096) // stride of one way keeps the modulo set fixed
	addrs := []uint64{0, way, 2 * way, 3 * way}
	for _, a := range addrs {
		c.Read(a)
	}
	c.Read(0)           // touch A
	c.Read(4 * way)     // insert E, evict B
	if !c.Read(0).Hit { // A stays
		t.Fatal("A evicted despite being MRU")
	}
	if !c.Read(2 * way).Hit { // C stays
		t.Fatal("C evicted")
	}
	// Check the victim last: this read refills B and evicts again.
	if c.Read(way).Hit {
		t.Fatal("B survived despite being LRU")
	}
}

func TestFIFOIgnoresTouches(t *testing.T) {
	// FIFO: fill A,B,C,D, touch A many times, insert E -> A still evicted.
	c, err := newRef(dl1Config(placement.Modulo, FIFO))
	if err != nil {
		t.Fatal(err)
	}
	way := uint64(4096)
	for _, a := range []uint64{0, way, 2 * way, 3 * way} {
		c.Read(a)
	}
	for i := 0; i < 10; i++ {
		c.Read(0)
	}
	c.Read(4 * way) // evicts A (first in)
	if !c.Read(way).Hit {
		t.Fatal("FIFO evicted the wrong line")
	}
	// Check the victim last: this read refills A and evicts again.
	if c.Read(0).Hit {
		t.Fatal("FIFO kept the first-inserted line after touches")
	}
}

func TestPLRUProtectsMRU(t *testing.T) {
	c, err := newRef(dl1Config(placement.Modulo, PLRU))
	if err != nil {
		t.Fatal(err)
	}
	way := uint64(4096)
	for _, a := range []uint64{0, way, 2 * way, 3 * way} {
		c.Read(a)
	}
	c.Read(0) // A is MRU
	c.Read(4 * way)
	if !c.Read(0).Hit {
		t.Fatal("PLRU evicted the most recently used line")
	}
}

func TestRandomReplacementEvictsWithinSet(t *testing.T) {
	c, err := newRef(dl1Config(placement.Modulo, Random))
	if err != nil {
		t.Fatal(err)
	}
	c.Reseed(42)
	way := uint64(4096)
	for i := uint64(0); i < 4; i++ {
		c.Read(i * way)
	}
	// Insert 100 more conflicting lines; occupancy of the set never
	// exceeds the ways. Evict-on-miss random replacement may stack early
	// fills into the same way, so between 100 and 103 fills displace a
	// valid line.
	for i := uint64(4); i < 104; i++ {
		c.Read(i * way)
	}
	if got := len(c.SetContents(0)); got > 4 {
		t.Fatalf("set 0 holds %d lines, want <= 4", got)
	}
	if ev := c.stats.Evictions; ev < 100 || ev > 103 {
		t.Fatalf("evictions = %d, want 100..103", ev)
	}
}

func TestRandomReplacementIsSeedDeterministic(t *testing.T) {
	run := func() []bool {
		c, err := newRef(dl1Config(placement.Modulo, Random))
		if err != nil {
			t.Fatal(err)
		}
		c.Reseed(7)
		var hits []bool
		g := prng.New(1)
		for i := 0; i < 3000; i++ {
			hits = append(hits, c.Read(uint64(g.Intn(1<<16))&^31).Hit)
		}
		return hits
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random replacement not reproducible at access %d", i)
		}
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c, err := newRef(dl1Config(placement.Modulo, LRU))
	if err != nil {
		t.Fatal(err)
	}
	if r := c.Write(0x2000); r.Hit || r.Filled {
		t.Fatalf("WT store miss allocated: %+v", r)
	}
	if c.Occupancy() != 0 {
		t.Fatal("WT store installed a line")
	}
	// After a read brings the line in, a store hits and leaves it clean.
	c.Read(0x2000)
	if r := c.Write(0x2000); !r.Hit {
		t.Fatal("store to present line missed")
	}
	if c.DirtyLines() != 0 {
		t.Fatal("write-through line marked dirty")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	cfg := dl1Config(placement.Modulo, LRU)
	cfg.Write = WriteBack
	c, err := newRef(cfg)
	if err != nil {
		t.Fatal(err)
	}
	way := uint64(4096)
	c.Write(0) // allocate dirty
	if c.DirtyLines() != 1 {
		t.Fatal("store did not dirty the line")
	}
	for i := uint64(1); i <= 3; i++ {
		c.Read(i * way)
	}
	r := c.Write(4 * way) // evicts line 0, which is dirty
	if !r.Evicted || !r.Writeback {
		t.Fatalf("dirty eviction not reported: %+v", r)
	}
	if r.WritebackAddr != 0 {
		t.Fatalf("writeback addr = %#x, want 0", r.WritebackAddr)
	}
	if c.stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.stats.Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	cfg := dl1Config(placement.Modulo, LRU)
	cfg.Write = WriteBack
	c, _ := newRef(cfg)
	way := uint64(4096)
	for i := uint64(0); i <= 4; i++ {
		c.Read(i * way)
	}
	if c.stats.Writebacks != 0 {
		t.Fatal("clean eviction produced a writeback")
	}
	if c.stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.stats.Evictions)
	}
}

func TestFlushInvalidatesEverything(t *testing.T) {
	c, _ := newRef(dl1Config(placement.Modulo, LRU))
	for i := uint64(0); i < 100; i++ {
		c.Read(i * 32)
	}
	if c.Occupancy() != 100 {
		t.Fatalf("occupancy %d before flush", c.Occupancy())
	}
	c.Flush()
	if c.Occupancy() != 0 {
		t.Fatal("flush left valid lines")
	}
	if c.Read(0).Hit {
		t.Fatal("hit after flush")
	}
}

func TestReseedFlushesAndRemaps(t *testing.T) {
	cfg := dl1Config(placement.RM, Random)
	c, err := newRef(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Reseed(1)
	c.Read(0x8000)
	if !c.Read(0x8000).Hit {
		t.Fatal("miss after fill")
	}
	c.Reseed(2)
	if c.Read(0x8000).Hit {
		t.Fatal("hit survived a reseed (contents must be flushed)")
	}
}

func TestLookupDoesNotDisturbState(t *testing.T) {
	c, _ := newRef(dl1Config(placement.Modulo, LRU))
	c.Read(0)
	st := c.stats
	if !c.Lookup(0) || c.Lookup(4096) {
		t.Fatal("Lookup wrong")
	}
	if c.stats != st {
		t.Fatal("Lookup changed counters")
	}
}

func TestSetUniquenessInvariant(t *testing.T) {
	// Property: after arbitrary access sequences, no set contains two
	// copies of the same line, and occupancy per set never exceeds ways.
	for _, pk := range []placement.Kind{placement.Modulo, placement.HRP, placement.RM} {
		for _, rk := range []ReplacementKind{LRU, Random, FIFO, PLRU} {
			c, err := newRef(dl1Config(pk, rk))
			if err != nil {
				t.Fatal(err)
			}
			c.Reseed(99)
			g := prng.New(uint64(pk)<<8 | uint64(rk))
			for i := 0; i < 20000; i++ {
				addr := uint64(g.Intn(1 << 17))
				if g.Intn(4) == 0 {
					c.Write(addr)
				} else {
					c.Read(addr)
				}
			}
			for set := 0; set < 128; set++ {
				contents := c.SetContents(set)
				if len(contents) > 4 {
					t.Fatalf("%v/%v: set %d holds %d lines", pk, rk, set, len(contents))
				}
				seen := map[uint64]bool{}
				for _, la := range contents {
					if seen[la] {
						t.Fatalf("%v/%v: duplicate line %#x in set %d", pk, rk, la, set)
					}
					seen[la] = true
				}
			}
		}
	}
}

func TestHitConsistencyWithRMPlacement(t *testing.T) {
	// Property: a line just read always hits immediately afterwards, for
	// any placement/seed (placement is stable within a run).
	c, err := newRef(dl1Config(placement.RM, Random))
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64, addrs []uint16) bool {
		c.Reseed(seed)
		for _, a16 := range addrs {
			a := uint64(a16) * 32
			c.Read(a)
			if !c.Read(a).Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleSegmentFitsUnderRM(t *testing.T) {
	// The RM guarantee at cache level: a footprint that fits in one way
	// (one line per modulo set) never self-conflicts, so after the first
	// sweep every subsequent sweep hits 100%, for every seed.
	cfg := dl1Config(placement.RM, Random)
	c, err := newRef(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 25; seed++ {
		c.Reseed(seed)
		for i := uint64(0); i < 128; i++ { // one full segment
			c.Read(i * 32)
		}
		c.ResetStats()
		for sweep := 0; sweep < 3; sweep++ {
			for i := uint64(0); i < 128; i++ {
				if !c.Read(i * 32).Hit {
					t.Fatalf("seed %d: RM missed on a single-segment footprint", seed)
				}
			}
		}
	}
}

func TestHRPCanSelfConflictWithinSegment(t *testing.T) {
	// The contrast to the previous test: under hRP some seeds map >4 lines
	// of a single segment into one set, producing misses on re-sweeps even
	// though the footprint fits in the cache. This is the cache risk
	// pattern the paper attributes to hRP.
	cfg := dl1Config(placement.HRP, LRU) // LRU makes overload misses certain
	c, err := newRef(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conflictSeeds := 0
	for seed := uint64(0); seed < 200; seed++ {
		c.Reseed(seed)
		for i := uint64(0); i < 128; i++ {
			c.Read(i * 32)
		}
		c.ResetStats()
		for i := uint64(0); i < 128; i++ {
			c.Read(i * 32)
		}
		if c.stats.Misses > 0 {
			conflictSeeds++
		}
	}
	// With 128 lines into 128 sets, P(some set gets >= 5 lines) is
	// non-negligible (paper 3.1); expect at least a handful in 200 seeds.
	if conflictSeeds == 0 {
		t.Fatal("hRP never self-conflicted on a one-segment footprint in 200 seeds")
	}
	t.Logf("hRP self-conflicted in %d/200 seeds (paper: non-negligible probability)", conflictSeeds)
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	c, _ := newRef(dl1Config(placement.HRP, Random))
	c.Reseed(5)
	g := prng.New(11)
	for i := 0; i < 50000; i++ {
		c.Read(uint64(g.Intn(1 << 20)))
	}
	if c.Occupancy() > 512 {
		t.Fatalf("occupancy %d exceeds capacity 512", c.Occupancy())
	}
}

func TestStatsMissRatio(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 {
		t.Fatal("zero-access miss ratio not 0")
	}
	s = Stats{Accesses: 10, Misses: 3}
	if s.MissRatio() != 0.3 {
		t.Fatalf("miss ratio = %f", s.MissRatio())
	}
}

func BenchmarkAccessModuloLRU(b *testing.B) { benchAccess(b, placement.Modulo, LRU) }
func BenchmarkAccessRMRandom(b *testing.B)  { benchAccess(b, placement.RM, Random) }
func BenchmarkAccessHRPRandom(b *testing.B) { benchAccess(b, placement.HRP, Random) }

func benchAccess(b *testing.B, pk placement.Kind, rk ReplacementKind) {
	c, err := newRef(dl1Config(pk, rk))
	if err != nil {
		b.Fatal(err)
	}
	c.Reseed(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Read(uint64(i) * 32 & (1<<18 - 1))
	}
}
