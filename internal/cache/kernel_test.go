package cache

import (
	"testing"

	"repro/internal/placement"
	"repro/internal/prng"
)

// kernelConfig builds a deliberately small level (2KB, 4-way, 32B lines ->
// 16 sets) so short access sequences already evict and write back.
func kernelConfig(pk placement.Kind, rk ReplacementKind, write WritePolicy) Config {
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

// resultBits converts a reference-model Result to the kernel's flag form.
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
// reference model and the kernel — its hit path where the line's last
// plan entry still hints its way, its slow path otherwise — on
// identically seeded caches and fails on any divergence: per-access
// outcomes, per-run Stats, cumulative Stats, occupancy, dirty lines,
// replacement tick and RNG state.
func driveEquivalence(t *testing.T, cfg Config, seed uint64, ops []uint16) {
	t.Helper()
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Reseed(seed)
	kc.Reseed(seed)
	k := NewKernel(kc)
	k.Begin()
	before := ref.stats
	hints := make(map[uint64]uint32)
	for i, op := range ops {
		la := uint64(op >> 1)
		set := kc.pol.Index(la)
		var want Result
		write := op&1 == 1
		if write {
			want = ref.Write(la * uint64(cfg.LineBytes))
		} else {
			want = ref.Read(la * uint64(cfg.LineBytes))
		}
		// Serve the access the way the replay loops do: the hit path when
		// the line's last entry still names its way, the slow path
		// otherwise (with a possibly stale hint that must not matter).
		var got AccessBits
		e, ok := hints[la]
		switch {
		case ok && k.Hinted(la, e):
			if write {
				k.WriteHit(e)
			} else {
				k.ReadHit(e, 1)
			}
			k.Hits(1)
			got = BitHit
		case write:
			got, e = k.Write(la, set|uint32(i%kc.ways)<<SetBits)
		default:
			got, e = k.Read(la, set|uint32(i%kc.ways)<<SetBits)
		}
		if got != resultBits(want) {
			t.Fatalf("%v/%v/%v op %d (la %#x write=%v): kernel %04b, ref %+v",
				cfg.Placement, cfg.Replacement, cfg.Write, i, la, write, got, want)
		}
		// The returned entry names the way the line now occupies, which is
		// what a Hinted check then confirms.
		if e&SetMask != set {
			t.Fatalf("op %d: entry set %d, want %d", i, e&SetMask, set)
		}
		if got != 0 {
			if !k.Hinted(la, e) {
				t.Fatalf("%v/%v/%v op %d: returned way %d does not hold la %#x",
					cfg.Placement, cfg.Replacement, cfg.Write, i, e>>SetBits, la)
			}
			hints[la] = e
		}
	}
	delta := k.End()
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
	if kc.stats != ref.stats {
		t.Fatalf("%v/%v/%v: cumulative stats %+v, ref %+v", cfg.Placement, cfg.Replacement, cfg.Write, kc.stats, ref.stats)
	}
	if kc.Occupancy() != ref.Occupancy() || kc.DirtyLines() != ref.DirtyLines() {
		t.Fatalf("%v/%v/%v: occupancy %d/%d dirty %d/%d diverged", cfg.Placement, cfg.Replacement, cfg.Write,
			kc.Occupancy(), ref.Occupancy(), kc.DirtyLines(), ref.DirtyLines())
	}
	if kc.tick != ref.tick {
		t.Fatalf("%v/%v/%v: tick %d, ref %d", cfg.Placement, cfg.Replacement, cfg.Write, kc.tick, ref.tick)
	}
	k32, k31, k29 := kc.rng.State()
	l32, l31, l29 := ref.rng.State()
	if k32 != l32 || k31 != l31 || k29 != l29 {
		t.Fatalf("%v/%v/%v: replacement RNG state diverged", cfg.Placement, cfg.Replacement, cfg.Write)
	}
	for set := 0; set < kc.sets; set++ {
		kcs, lcs := kc.SetContents(set), ref.SetContents(set)
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

// writePolicies enumerates the write policies a kernel can be bound to.
var writePolicies = []WritePolicy{WriteThrough, WriteBack}

// TestKernelEquivalenceAllConfigs sweeps every placement kind ×
// replacement kind × write policy with a PRNG-generated mixed
// read/write sequence, the deterministic counterpart of
// FuzzAccessEquivalence.
func TestKernelEquivalenceAllConfigs(t *testing.T) {
	for _, pk := range placement.Kinds() {
		for _, rk := range []ReplacementKind{LRU, Random, FIFO, PLRU} {
			for _, w := range writePolicies {
				cfg := kernelConfig(pk, rk, w)
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

// TestKernelReusableAcrossRuns checks the campaign pattern: one bound
// kernel, many Reseed+replay rounds, still bit-exact against a fresh
// reference-model cache replaying the same rounds.
func TestKernelReusableAcrossRuns(t *testing.T) {
	cfg := kernelConfig(placement.RM, Random, WriteBack)
	ref, _ := New(cfg)
	kc, _ := New(cfg)
	k := NewKernel(kc)
	g := prng.New(0x5EED)
	ops := make([]uint16, 4000)
	for i := range ops {
		ops[i] = uint16(g.Bits(11))
	}
	for run := 0; run < 5; run++ {
		seed := prng.Derive(77, run)
		ref.Reseed(seed)
		kc.Reseed(seed)
		k.Begin()
		for _, op := range ops {
			la := uint64(op >> 1)
			set := kc.pol.Index(la)
			if op&1 == 1 {
				want := resultBits(ref.Write(la * uint64(cfg.LineBytes)))
				if got, _ := k.Write(la, set); got != want {
					t.Fatalf("run %d: write diverged: %04b vs %04b", run, got, want)
				}
			} else {
				want := resultBits(ref.Read(la * uint64(cfg.LineBytes)))
				if got, _ := k.Read(la, set); got != want {
					t.Fatalf("run %d: read diverged: %04b vs %04b", run, got, want)
				}
			}
		}
		k.End()
		if kc.stats != ref.stats {
			t.Fatalf("run %d: stats diverged: %+v vs %+v", run, kc.stats, ref.stats)
		}
	}
}

// FuzzAccessEquivalence drives fuzzer-chosen access sequences through the
// kernel path and the per-access reference model on identically configured caches
// and requires identical per-access Results, Stats, occupancy and
// replacement state. The configuration (placement, replacement, write
// policy) is part of the fuzz input, so the corpus explores every
// kernel.
func FuzzAccessEquivalence(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte("\x01\x02\x03\x04\x10\x20\x30\x40"))
	f.Add(uint8(0x5A), uint64(42), []byte("\xFF\x00\xFF\x00\x01\x01\x02\x02\x03\x03"))
	f.Add(uint8(0x27), uint64(7), []byte("ABABABCDCDCD"))
	f.Fuzz(func(t *testing.T, sel uint8, seed uint64, data []byte) {
		kinds := placement.Kinds()
		pk := kinds[int(sel)%len(kinds)]
		rk := []ReplacementKind{LRU, Random, FIFO, PLRU}[int(sel>>3)%4]
		cfg := kernelConfig(pk, rk, writePolicies[int(sel>>5)%len(writePolicies)])
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
