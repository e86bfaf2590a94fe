package cache

import (
	"math/bits"

	"repro/internal/prng"
)

// AccessBits is the compact outcome of one kernel access: which of hit,
// fill, eviction and writeback happened. Callers charge cycles and count
// memory transactions from these flags alone; the kernel never reports
// a victim's address because no caller routes it anywhere.
type AccessBits uint8

// Access outcome flags.
const (
	BitHit       AccessBits = 1 << iota // line was present
	BitFilled                           // a new line was installed
	BitEvicted                          // a valid line was displaced
	BitWriteback                        // the displaced line was dirty
)

// Kernel is the monomorphic replay engine of one cache level: the access
// paths of the compiled campaign loop with every per-access decision that
// is fixed by the configuration — replacement kind, write policy, write
// allocation — resolved once, when the kernel is bound, instead of
// branched on per access. Read and write dispatch through function values
// selected per (replacement kind × write arrangement); statistics
// accumulate in kernel-local counters and flush into the cache once per
// run (End), so the hot path touches no shared Stats fields.
//
// A Kernel aliases its cache's tag state (the SoA slices never reallocate
// after construction, Flush and Reseed clear them in place), so one Kernel
// bound at platform construction serves every subsequent run. Between
// Begin and End the kernel owns the cache's tick and counters.
// Replacement-RNG draws go straight to the cache's own generator, in the
// order a per-access model draws them, so the kernels stay bit-identical
// to the reference model in this package's tests.
type Kernel struct {
	c *Cache

	// Aliased tag and replacement state (see Cache).
	addrs   []uint64
	valid   []uint64
	dirty   []uint64
	lruTick []uint64
	plru    []uint64
	rng     *prng.PRNG

	ways       int
	wayMask    uint64
	plruLevels int
	tick       uint64

	read  func(k *Kernel, la uint64, set uint32) AccessBits
	write func(k *Kernel, la uint64, set uint32) AccessBits

	accesses, hits, evictions, writebacks uint64
}

// NewKernel binds a replay kernel to a cache level, selecting the access
// functions for the level's replacement kind and write arrangement. The
// cache's configuration was validated at construction, so every
// combination has a kernel.
func NewKernel(c *Cache) *Kernel {
	k := &Kernel{
		c:          c,
		addrs:      c.addrs,
		valid:      c.valid,
		dirty:      c.dirty,
		lruTick:    c.lruTick,
		plru:       c.plru,
		rng:        c.rng,
		ways:       c.ways,
		wayMask:    1<<uint(c.ways) - 1,
		plruLevels: bits.TrailingZeros(uint(c.ways)),
	}
	type pair struct {
		read  func(k *Kernel, la uint64, set uint32) AccessBits
		write func(k *Kernel, la uint64, set uint32) AccessBits
	}
	// arrangement: 0 = write-through no-allocate, 1 = write-through
	// allocate-on-write, 2 = write-back (always allocates).
	arrangement := 0
	switch {
	case c.cfg.Write == WriteBack:
		arrangement = 2
	case c.cfg.AllocOnWrite:
		arrangement = 1
	}
	table := map[ReplacementKind][3]pair{
		LRU: {
			{readLRU, writeLRUThroughNoAlloc},
			{readLRU, writeLRUThroughAlloc},
			{readLRU, writeLRUBack},
		},
		FIFO: {
			{readFIFO, writeFIFOThroughNoAlloc},
			{readFIFO, writeFIFOThroughAlloc},
			{readFIFO, writeFIFOBack},
		},
		PLRU: {
			{readPLRU, writePLRUThroughNoAlloc},
			{readPLRU, writePLRUThroughAlloc},
			{readPLRU, writePLRUBack},
		},
		Random: {
			{readRandom, writeRandomThroughNoAlloc},
			{readRandom, writeRandomThroughAlloc},
			{readRandom, writeRandomBack},
		},
	}
	p := table[c.repl][arrangement]
	k.read, k.write = p.read, p.write
	return k
}

// Begin starts a run: counters reset and the replacement tick is
// snapshotted from the cache.
//
//rm:hotpath
func (k *Kernel) Begin() {
	k.tick = k.c.tick
	k.accesses, k.hits, k.evictions, k.writebacks = 0, 0, 0, 0
}

// End finishes a run: the tick and the accumulated counters flush back
// into the cache (so cumulative Cache.Stats stay exact), and the per-run
// Stats delta is returned.
//
//rm:hotpath
func (k *Kernel) End() Stats {
	k.c.tick = k.tick
	d := Stats{
		Accesses:   k.accesses,
		Hits:       k.hits,
		Misses:     k.accesses - k.hits,
		Evictions:  k.evictions,
		Writebacks: k.writebacks,
	}
	s := &k.c.stats
	s.Accesses += d.Accesses
	s.Hits += d.Hits
	s.Misses += d.Misses
	s.Evictions += d.Evictions
	s.Writebacks += d.Writebacks
	return d
}

// Read performs a load or fetch of line la with a precomputed set index;
// bit-identical in behaviour, counters and RNG draws to the per-access
// reference model (see the fuzz and differential tests).
//
//rm:hotpath
func (k *Kernel) Read(la uint64, set uint32) AccessBits { return k.read(k, la, set) }

// Write performs a store to line la with a precomputed set index; see Read.
//
//rm:hotpath
func (k *Kernel) Write(la uint64, set uint32) AccessBits { return k.write(k, la, set) }

// install places la into way w of set, accounting an eviction (and a
// writeback for a dirty victim), and returns the fill outcome. Shared cold
// path of every fill.
//
//rm:hotpath
func (k *Kernel) install(la uint64, set uint32, w int, dirty bool) AccessBits {
	bit := uint64(1) << uint(w)
	r := BitFilled
	if k.valid[set]&bit != 0 {
		r |= BitEvicted
		k.evictions++
		if k.dirty[set]&bit != 0 {
			r |= BitWriteback
			k.writebacks++
		}
	}
	k.addrs[int(set)*k.ways+w] = la
	k.valid[set] |= bit
	if dirty {
		k.dirty[set] |= bit
	} else {
		k.dirty[set] &^= bit
	}
	return r
}

// plruProtect updates the PLRU tree so the path to way w points away.
//
//rm:hotpath
func (k *Kernel) plruProtect(set uint32, w int) {
	node := 0
	treeBits := k.plru[set]
	for level := 0; level < k.plruLevels; level++ {
		bit := (w >> uint(k.plruLevels-1-level)) & 1
		if bit == 0 {
			treeBits |= 1 << uint(node)
		} else {
			treeBits &^= 1 << uint(node)
		}
		node = 2*node + 1 + bit
	}
	k.plru[set] = treeBits
}

// ---------------------------------------------------------------------------
// Fills: the per-replacement miss paths (victim selection + install).

//rm:hotpath
func (k *Kernel) fillLRU(la uint64, set uint32, dirty bool) AccessBits {
	base := int(set) * k.ways
	var w int
	if free := ^k.valid[set] & k.wayMask; free != 0 {
		w = bits.TrailingZeros64(free)
	} else {
		oldest, oldestTick := 0, k.lruTick[base]
		for i := 1; i < k.ways; i++ {
			if k.lruTick[base+i] < oldestTick {
				oldest, oldestTick = i, k.lruTick[base+i]
			}
		}
		w = oldest
	}
	r := k.install(la, set, w, dirty)
	k.tick++
	k.lruTick[base+w] = k.tick
	return r
}

//rm:hotpath
func (k *Kernel) fillFIFO(la uint64, set uint32, dirty bool) AccessBits {
	base := int(set) * k.ways
	var w int
	if free := ^k.valid[set] & k.wayMask; free != 0 {
		w = bits.TrailingZeros64(free)
	} else {
		oldest, oldestTick := 0, k.lruTick[base]
		for i := 1; i < k.ways; i++ {
			if k.lruTick[base+i] < oldestTick {
				oldest, oldestTick = i, k.lruTick[base+i]
			}
		}
		w = oldest
	}
	r := k.install(la, set, w, dirty)
	k.tick++ // FIFO restamps on every fill, never on hits
	k.lruTick[base+w] = k.tick
	return r
}

//rm:hotpath
func (k *Kernel) fillPLRU(la uint64, set uint32, dirty bool) AccessBits {
	var w int
	if free := ^k.valid[set] & k.wayMask; free != 0 {
		w = bits.TrailingZeros64(free)
	} else {
		node := 0
		treeBits := k.plru[set]
		for level := 0; level < k.plruLevels; level++ {
			bit := int(treeBits >> uint(node) & 1)
			w = w<<1 | bit
			node = 2*node + 1 + bit
		}
	}
	r := k.install(la, set, w, dirty)
	k.plruProtect(set, w)
	return r
}

//rm:hotpath
func (k *Kernel) fillRandom(la uint64, set uint32, dirty bool) AccessBits {
	// Evict-on-miss: any way with probability 1/W, invalid ways included,
	// drawn from the cache's replacement stream (same draw order as the
	// per-access reference model).
	return k.install(la, set, k.rng.Intn(k.ways), dirty)
}

// ---------------------------------------------------------------------------
// Read kernels, one per replacement kind. Reads never dirty a line, so the
// write arrangement only reaches them through the fill's dirty-victim
// check, which install handles uniformly (write-through levels simply
// never have dirty bits set).

//rm:hotpath
func readLRU(k *Kernel, la uint64, set uint32) AccessBits {
	k.accesses++
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++
			k.tick++
			k.lruTick[base+w] = k.tick
			return BitHit
		}
	}
	return k.fillLRU(la, set, false)
}

//rm:hotpath
func readFIFO(k *Kernel, la uint64, set uint32) AccessBits {
	k.accesses++
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++ // FIFO ignores touches: stamp only on fill
			return BitHit
		}
	}
	return k.fillFIFO(la, set, false)
}

//rm:hotpath
func readPLRU(k *Kernel, la uint64, set uint32) AccessBits {
	k.accesses++
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++
			k.plruProtect(set, w)
			return BitHit
		}
	}
	return k.fillPLRU(la, set, false)
}

//rm:hotpath
func readRandom(k *Kernel, la uint64, set uint32) AccessBits {
	k.accesses++
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++ // random replacement is stateless on hits
			return BitHit
		}
	}
	return k.fillRandom(la, set, false)
}

// ---------------------------------------------------------------------------
// Write kernels, one per (replacement kind × write arrangement).
//
// Write-through no-allocate: a store hit updates replacement state, a
// store miss bypasses the level entirely (no fill, no RNG draw).
// Write-through allocate: a store miss fills, but the line stays clean.
// Write-back: hits and fills dirty the line; misses always allocate.

//rm:hotpath
func writeLRUThroughNoAlloc(k *Kernel, la uint64, set uint32) AccessBits {
	k.accesses++
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++
			k.tick++
			k.lruTick[base+w] = k.tick
			return BitHit
		}
	}
	return 0
}

//rm:hotpath
func writeLRUThroughAlloc(k *Kernel, la uint64, set uint32) AccessBits {
	k.accesses++
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++
			k.tick++
			k.lruTick[base+w] = k.tick
			return BitHit
		}
	}
	return k.fillLRU(la, set, false)
}

//rm:hotpath
func writeLRUBack(k *Kernel, la uint64, set uint32) AccessBits {
	k.accesses++
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++
			k.tick++
			k.lruTick[base+w] = k.tick
			k.dirty[set] |= 1 << uint(w)
			return BitHit
		}
	}
	return k.fillLRU(la, set, true)
}

//rm:hotpath
func writeFIFOThroughNoAlloc(k *Kernel, la uint64, set uint32) AccessBits {
	k.accesses++
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++
			return BitHit
		}
	}
	return 0
}

//rm:hotpath
func writeFIFOThroughAlloc(k *Kernel, la uint64, set uint32) AccessBits {
	k.accesses++
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++
			return BitHit
		}
	}
	return k.fillFIFO(la, set, false)
}

//rm:hotpath
func writeFIFOBack(k *Kernel, la uint64, set uint32) AccessBits {
	k.accesses++
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++
			k.dirty[set] |= 1 << uint(w)
			return BitHit
		}
	}
	return k.fillFIFO(la, set, true)
}

//rm:hotpath
func writePLRUThroughNoAlloc(k *Kernel, la uint64, set uint32) AccessBits {
	k.accesses++
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++
			k.plruProtect(set, w)
			return BitHit
		}
	}
	return 0
}

//rm:hotpath
func writePLRUThroughAlloc(k *Kernel, la uint64, set uint32) AccessBits {
	k.accesses++
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++
			k.plruProtect(set, w)
			return BitHit
		}
	}
	return k.fillPLRU(la, set, false)
}

//rm:hotpath
func writePLRUBack(k *Kernel, la uint64, set uint32) AccessBits {
	k.accesses++
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++
			k.plruProtect(set, w)
			k.dirty[set] |= 1 << uint(w)
			return BitHit
		}
	}
	return k.fillPLRU(la, set, true)
}

//rm:hotpath
func writeRandomThroughNoAlloc(k *Kernel, la uint64, set uint32) AccessBits {
	k.accesses++
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++
			return BitHit
		}
	}
	return 0
}

//rm:hotpath
func writeRandomThroughAlloc(k *Kernel, la uint64, set uint32) AccessBits {
	k.accesses++
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++
			return BitHit
		}
	}
	return k.fillRandom(la, set, false)
}

//rm:hotpath
func writeRandomBack(k *Kernel, la uint64, set uint32) AccessBits {
	k.accesses++
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++
			k.dirty[set] |= 1 << uint(w)
			return BitHit
		}
	}
	return k.fillRandom(la, set, true)
}
