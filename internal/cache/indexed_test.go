package cache

import (
	"testing"

	"repro/internal/placement"
	"repro/internal/prng"
)

// TestReadWriteLineMatchesByteAPI pins the indexed entry points' contract:
// driving a cache through ReadLine/WriteLine with precomputed sets yields
// the same Results, counters and replacement-RNG draws as the byte-address
// API, for every placement and replacement policy.
func TestReadWriteLineMatchesByteAPI(t *testing.T) {
	for _, pk := range []placement.Kind{placement.Modulo, placement.XORFold, placement.HRP, placement.RM, placement.RMRot} {
		for _, rk := range []ReplacementKind{LRU, Random, FIFO, PLRU} {
			ref, err := newRef(dl1Config(pk, rk))
			if err != nil {
				t.Fatal(err)
			}
			idx, err := newRef(dl1Config(pk, rk))
			if err != nil {
				t.Fatal(err)
			}
			ref.Reseed(77)
			idx.Reseed(77)
			g := prng.New(123)
			for i := 0; i < 20000; i++ {
				addr := g.Bits(16)
				isWrite := g.Intn(4) == 0
				la := idx.LineAddr(addr)
				set := idx.Policy().Index(la)
				var rRef, rIdx Result
				if isWrite {
					rRef = ref.Write(addr)
					rIdx = idx.WriteLine(la, set)
				} else {
					rRef = ref.Read(addr)
					rIdx = idx.ReadLine(la, set)
				}
				if rRef != rIdx {
					t.Fatalf("%v/%v access %d: indexed %+v, byte API %+v", pk, rk, i, rIdx, rRef)
				}
			}
			if ref.stats != idx.stats {
				t.Fatalf("%v/%v: stats diverged: %+v vs %+v", pk, rk, idx.stats, ref.stats)
			}
		}
	}
}

// TestFreshRandomCachesDrawIndependentVictims pins the initial-stream
// bugfix: two fresh (never reseeded) Random-replacement levels with
// different configured names must not share one victim stream. Before the
// fix every cache started at prng.New(0), so IL1/DL1/L2 evicted in
// lockstep until the first Reseed.
func TestFreshRandomCachesDrawIndependentVictims(t *testing.T) {
	mk := func(name string) *refCache {
		cfg := dl1Config(placement.Modulo, Random)
		cfg.Name = name
		c, err := newRef(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	victims := func(c *refCache) []uint64 {
		// Overfill set 0 (modulo placement, 4 ways) and record which line
		// survives after each eviction round via SetContents.
		var seq []uint64
		for i := uint64(0); i < 40; i++ {
			c.Read(i * 4096) // all map to set 0
			for _, la := range c.SetContents(0) {
				seq = append(seq, la)
			}
		}
		return seq
	}
	a := victims(mk("IL1"))
	b := victims(mk("DL1"))
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("fresh IL1 and DL1 Random caches evict in lockstep (shared initial victim stream)")
	}
}

// TestInitialStreamDoesNotChangePostReseedSequence guards the other half
// of the bugfix's contract: after any Reseed the victim stream is a pure
// function of the seed, regardless of the level's name-derived initial
// state.
func TestInitialStreamDoesNotChangePostReseedSequence(t *testing.T) {
	run := func(name string) []int {
		cfg := dl1Config(placement.Modulo, Random)
		cfg.Name = name
		c, err := newRef(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Reseed(31337)
		var occ []int
		for i := uint64(0); i < 64; i++ {
			c.Read(i * 4096)
			occ = append(occ, c.Occupancy())
		}
		return occ
	}
	a, b := run("IL1"), run("L2")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("post-Reseed behaviour depends on the config name (step %d)", i)
		}
	}
}
