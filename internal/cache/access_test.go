package cache

import (
	"testing"

	"repro/internal/placement"
	"repro/internal/prng"
)

// smallConfig builds a deliberately small level (2KB, 4-way, 32B lines ->
// 16 sets) so short access sequences already evict and write back.
func smallConfig(pk placement.Kind, rk ReplacementKind, write WritePolicy) Config {
	return Config{
		Name:        "KT",
		SizeBytes:   2 * 1024,
		Ways:        4,
		LineBytes:   32,
		Placement:   pk,
		Replacement: rk,
		Write:       write,
	}
}

// resultBits converts a reference-model Result to the replay's flag form.
func resultBits(r Result) AccessBits {
	var b AccessBits
	if r.Hit {
		b |= BitHit
	}
	if r.Filled {
		b |= BitFilled
	}
	if r.Evicted {
		b |= BitEvicted
	}
	if r.Writeback {
		b |= BitWriteback
	}
	return b
}

// driveEquivalence replays one access sequence through the per-access
// reference model and a level's replay methods — the hit path where the
// line's last plan entry still hints its way, the slow path otherwise —
// on identically seeded levels and fails on any divergence: per-access
// outcomes, per-run Stats, their sum against the reference's cumulative
// Stats, occupancy, dirty lines, replacement tick and RNG state. The
// sequence runs as two back-to-back runs (Begin ... End) without a
// reseed between them, so the second starts warm.
func driveEquivalence(t *testing.T, cfg Config, seed uint64, ops []uint16) {
	t.Helper()
	ref, err := newRef(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Reseed(seed)
	c.Reseed(seed)
	hints := make(map[uint64]uint32)
	var sum Stats
	for _, run := range [][]uint16{ops[:len(ops)/2], ops[len(ops)/2:]} {
		c.Begin()
		before := ref.stats
		for i, op := range run {
			la := uint64(op >> 1)
			set := c.pol.Index(la)
			var want Result
			write := op&1 == 1
			if write {
				want = ref.Write(la * uint64(cfg.LineBytes))
			} else {
				want = ref.Read(la * uint64(cfg.LineBytes))
			}
			// Serve the access the way the replay loops do: the hit path
			// when the line's last entry still names its way, the slow
			// path otherwise (with a possibly stale hint that must not
			// matter).
			var got AccessBits
			e, ok := hints[la]
			switch {
			case ok && c.Hinted(la, e):
				if write {
					c.WriteHit(e)
				} else {
					c.ReadHit(e, 1)
				}
				c.Hits(1)
				got = BitHit
			case write:
				got, e = c.Write(la, set|uint32(i%c.ways)<<SetBits)
			default:
				got, e = c.Read(la, set|uint32(i%c.ways)<<SetBits)
			}
			if got != resultBits(want) {
				t.Fatalf("%v/%v/%v op %d (la %#x write=%v): level %04b, ref %+v",
					cfg.Placement, cfg.Replacement, cfg.Write, i, la, write, got, want)
			}
			// The returned entry names the way the line now occupies,
			// which is what a Hinted check then confirms.
			if e&SetMask != set {
				t.Fatalf("op %d: entry set %d, want %d", i, e&SetMask, set)
			}
			if got != 0 {
				if !c.Hinted(la, e) {
					t.Fatalf("%v/%v/%v op %d: returned way %d does not hold la %#x",
						cfg.Placement, cfg.Replacement, cfg.Write, i, e>>SetBits, la)
				}
				hints[la] = e
			}
		}
		delta := c.End()
		after := ref.stats
		wantDelta := Stats{
			Accesses:   after.Accesses - before.Accesses,
			Hits:       after.Hits - before.Hits,
			Misses:     after.Misses - before.Misses,
			Evictions:  after.Evictions - before.Evictions,
			Writebacks: after.Writebacks - before.Writebacks,
		}
		if delta != wantDelta {
			t.Fatalf("%v/%v/%v: run delta %+v, ref %+v", cfg.Placement, cfg.Replacement, cfg.Write, delta, wantDelta)
		}
		sum = addStats(sum, delta)
	}
	if sum != ref.stats {
		t.Fatalf("%v/%v/%v: summed run stats %+v, ref %+v", cfg.Placement, cfg.Replacement, cfg.Write, sum, ref.stats)
	}
	if c.Occupancy() != ref.Occupancy() || c.DirtyLines() != ref.DirtyLines() {
		t.Fatalf("%v/%v/%v: occupancy %d/%d dirty %d/%d diverged", cfg.Placement, cfg.Replacement, cfg.Write,
			c.Occupancy(), ref.Occupancy(), c.DirtyLines(), ref.DirtyLines())
	}
	if c.tick != ref.tick {
		t.Fatalf("%v/%v/%v: tick %d, ref %d", cfg.Placement, cfg.Replacement, cfg.Write, c.tick, ref.tick)
	}
	k32, k31, k29 := c.rng.State()
	l32, l31, l29 := ref.rng.State()
	if k32 != l32 || k31 != l31 || k29 != l29 {
		t.Fatalf("%v/%v/%v: replacement RNG state diverged", cfg.Placement, cfg.Replacement, cfg.Write)
	}
	for set := range c.valid {
		kcs, lcs := c.SetContents(set), ref.SetContents(set)
		if len(kcs) != len(lcs) {
			t.Fatalf("%v/%v/%v: set %d contents diverged", cfg.Placement, cfg.Replacement, cfg.Write, set)
		}
		for i := range kcs {
			if kcs[i] != lcs[i] {
				t.Fatalf("%v/%v/%v: set %d way-order diverged", cfg.Placement, cfg.Replacement, cfg.Write, set)
			}
		}
	}
}

// addStats sums two runs' Stats.
func addStats(a, b Stats) Stats {
	return Stats{
		Accesses:   a.Accesses + b.Accesses,
		Hits:       a.Hits + b.Hits,
		Misses:     a.Misses + b.Misses,
		Evictions:  a.Evictions + b.Evictions,
		Writebacks: a.Writebacks + b.Writebacks,
		Flushes:    a.Flushes + b.Flushes,
	}
}

// writePolicies enumerates the write policies a level can have.
var writePolicies = []WritePolicy{WriteThrough, WriteBack}

// TestKernelEquivalenceAllConfigs sweeps every placement kind ×
// replacement kind × write policy with a PRNG-generated mixed
// read/write sequence, the deterministic counterpart of
// FuzzAccessEquivalence.
func TestKernelEquivalenceAllConfigs(t *testing.T) {
	for _, pk := range placement.Kinds() {
		for _, rk := range []ReplacementKind{LRU, Random, FIFO, PLRU} {
			for _, w := range writePolicies {
				cfg := smallConfig(pk, rk, w)
				g := prng.New(uint64(pk)<<16 | uint64(rk)<<8 | uint64(w))
				ops := make([]uint16, 6000)
				for i := range ops {
					ops[i] = uint16(g.Bits(10))<<1 | uint16(g.Intn(4)&1)
				}
				driveEquivalence(t, cfg, g.Uint64(), ops)
			}
		}
	}
}

// TestKernelReusableAcrossRuns checks the campaign pattern: one level,
// many Reseed+replay rounds, still bit-exact against a reference-model
// level replaying the same rounds, with the runs' Stats summing to the
// reference's cumulative Stats.
func TestKernelReusableAcrossRuns(t *testing.T) {
	cfg := smallConfig(placement.RM, Random, WriteBack)
	ref, _ := newRef(cfg)
	c, _ := New(cfg)
	g := prng.New(0x5EED)
	ops := make([]uint16, 4000)
	for i := range ops {
		ops[i] = uint16(g.Bits(11))
	}
	var sum Stats
	for run := 0; run < 5; run++ {
		seed := prng.Derive(77, run)
		ref.Reseed(seed)
		c.Reseed(seed)
		c.Begin()
		for _, op := range ops {
			la := uint64(op >> 1)
			set := c.pol.Index(la)
			if op&1 == 1 {
				want := resultBits(ref.Write(la * uint64(cfg.LineBytes)))
				if got, _ := c.Write(la, set); got != want {
					t.Fatalf("run %d: write diverged: %04b vs %04b", run, got, want)
				}
			} else {
				want := resultBits(ref.Read(la * uint64(cfg.LineBytes)))
				if got, _ := c.Read(la, set); got != want {
					t.Fatalf("run %d: read diverged: %04b vs %04b", run, got, want)
				}
			}
		}
		sum = addStats(sum, c.End())
		if sum != ref.stats {
			t.Fatalf("run %d: summed stats diverged: %+v vs %+v", run, sum, ref.stats)
		}
	}
}

// TestBeginResetsRunStats replays one seeded run twice on one level:
// each Reseed restores the run's start, so both runs must report the
// same Stats, which holds only if Begin zeroes the previous run's
// counters.
func TestBeginResetsRunStats(t *testing.T) {
	for _, rk := range ReplacementKinds() {
		c, err := New(smallConfig(placement.RM, rk, WriteBack))
		if err != nil {
			t.Fatal(err)
		}
		g := prng.New(0xB391)
		ops := make([]uint16, 3000)
		for i := range ops {
			ops[i] = uint16(g.Bits(11))
		}
		var runs [2]Stats
		for i := range runs {
			c.Reseed(42)
			c.Begin()
			for _, op := range ops {
				la := uint64(op >> 1)
				if set := c.pol.Index(la); op&1 == 1 {
					c.Write(la, set)
				} else {
					c.Read(la, set)
				}
			}
			runs[i] = c.End()
		}
		if runs[0].Accesses != uint64(len(ops)) || runs[1] != runs[0] {
			t.Fatalf("%v: back-to-back runs report %+v then %+v, want %d accesses each", rk, runs[0], runs[1], len(ops))
		}
	}
}

// FuzzAccessEquivalence drives fuzzer-chosen access sequences through a
// level's replay methods and the per-access reference model on
// identically configured levels and requires identical per-access
// Results, Stats, occupancy and replacement state. The configuration
// (placement, replacement, write policy) is part of the fuzz input, so
// the corpus explores every replacement kind and write arrangement.
func FuzzAccessEquivalence(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte("\x01\x02\x03\x04\x10\x20\x30\x40"))
	f.Add(uint8(0x5A), uint64(42), []byte("\xFF\x00\xFF\x00\x01\x01\x02\x02\x03\x03"))
	f.Add(uint8(0x27), uint64(7), []byte("ABABABCDCDCD"))
	f.Fuzz(func(t *testing.T, sel uint8, seed uint64, data []byte) {
		kinds := placement.Kinds()
		pk := kinds[int(sel)%len(kinds)]
		rk := []ReplacementKind{LRU, Random, FIFO, PLRU}[int(sel>>3)%4]
		cfg := smallConfig(pk, rk, writePolicies[int(sel>>5)%len(writePolicies)])
		if len(data) > 4096 {
			data = data[:4096]
		}
		ops := make([]uint16, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			ops = append(ops, uint16(data[i])<<8|uint16(data[i+1]))
		}
		driveEquivalence(t, cfg, seed, ops)
	})
}
