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

// Index-plan entries (see placement.IndexAll and sim.Core.RunCompiled)
// pack a set index and a way hint into one uint32: the set in the low
// SetBits bits, the way the line last occupied in the top 8.
// Config.Validate caps a level at MaxSets sets and 64 ways, so both
// always fit, and an entry fresh from IndexAll hints way 0. Every reader of an entry masks
// the set with SetMask; the kernel's slow paths accept either form.
const (
	SetBits = 24
	SetMask = 1<<SetBits - 1
	MaxSets = 1 << SetBits
)

// Kernel is the replay engine of one cache level, split into a hit path
// and one generic slow path. The hit path is a set of inlinable methods
// the replay loops call after a Hinted check on an index-plan entry has
// found the line in its hinted way: ReadHit and WriteHit apply the
// replacement and dirty-bit updates of a hit without scanning the set,
// and Hits adds the hits the loop counted. A hinted hit is the hit the
// scan would find, since a line occupies at most one way of its set (it
// is installed only on a miss). Everything else — misses, way
// mispredictions and the security engine's accesses — goes through Read
// and Write, one scan-and-fill routine that switches on the replacement
// kind and write arrangement and returns the plan entry of the way it hit
// or filled, so the caller can refresh its hint. Statistics accumulate in
// kernel-local counters and flush into the cache once per run (End).
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

	// PLRU touch tables (plruTables), nil under other kinds.
	plruPath, plruAway []uint64

	// The level's replacement kind and write arrangement; isLRU and
	// isPLRU duplicate repl so the hit path stays within the inlining
	// budget.
	repl          ReplacementKind
	isLRU, isPLRU bool
	writeBack     bool // stores allocate and dirty lines; write-through store misses bypass

	accesses, hits, evictions, writebacks uint64
}

// NewKernel binds a replay kernel to a cache level. The cache's
// configuration was validated at construction, so every combination of
// replacement kind and write arrangement is supported.
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
		repl:       c.repl,
		isLRU:      c.repl == LRU,
		isPLRU:     c.repl == PLRU,
		writeBack:  c.AllocatesOnWrite(),
	}
	if k.isPLRU {
		k.plruPath, k.plruAway = plruTables(k.ways, k.plruLevels)
	}
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

// Hinted reports whether the way plan entry e hints holds line la in e's
// set: one tag compare instead of a set scan. A stale hint (the line was
// evicted or moved, or the entry was rebuilt) fails the check and costs
// one slow-path access, so hints never need invalidating.
//
//rm:hotpath
func (k *Kernel) Hinted(la uint64, e uint32) bool {
	set, w := e&SetMask, e>>SetBits
	return k.valid[set]>>(w&63)&1 != 0 && k.addrs[int(set)*k.ways+int(w)] == la
}

// ReadHit applies n read hits on the line in the way e hints, which a
// Hinted check has confirmed: LRU advances its tick by n and stamps the
// way once, leaving the state n separate hits leave; PLRU protects the
// way (idempotent); FIFO and Random change nothing. The caller counts the
// hits (Hits).
//
//rm:hotpath
func (k *Kernel) ReadHit(e uint32, n uint64) {
	if k.isLRU {
		k.tick += n
		k.lruTick[int(e&SetMask)*k.ways+int(e>>SetBits)] = k.tick
	} else if k.isPLRU {
		set, w := e&SetMask, e>>SetBits
		k.plru[set] = k.plru[set]&^k.plruPath[w] | k.plruAway[w]
	}
}

// WriteHit applies a store hit on the line in the way e hints: ReadHit's
// replacement update, plus the dirty bit on a write-back level.
//
//rm:hotpath
func (k *Kernel) WriteHit(e uint32) {
	k.ReadHit(e, 1)
	if k.writeBack {
		k.dirty[e&SetMask] |= 1 << (e >> SetBits)
	}
}

// Hits adds n hits served by the hit path to the run's counters.
//
//rm:hotpath
func (k *Kernel) Hits(n uint64) {
	k.accesses += n
	k.hits += n
}

// RestoreLRU finishes an LRU run that skipped read hits: it leaves the
// tick and stamps that replaying every access would have left. The run
// started cold and every access ticks once, so the tick becomes the
// run's starting tick plus accesses, and each resident line's stamp the
// starting tick plus the accesses up to its last one. lines, plan and
// last hold, per line ID, the line address, its plan entry and that
// count; an ID's line is resident where its entry's way hint holds it
// (the last ID to touch a line keeps an exact hint), and IDs sharing a
// line take the latest count. It does nothing on other kinds.
//
//rm:hotpath
func (k *Kernel) RestoreLRU(lines []uint64, plan []uint32, last []uint64, accesses uint64) {
	if !k.isLRU {
		return
	}
	start := k.c.tick // Begin's snapshot; End writes the tick back
	plan = plan[:len(lines)]
	for id, e := range plan {
		if k.Hinted(lines[id], e) {
			k.lruTick[int(e&SetMask)*k.ways+int(e>>SetBits)] = 0
		}
	}
	for id, e := range plan {
		if k.Hinted(lines[id], e) {
			p := &k.lruTick[int(e&SetMask)*k.ways+int(e>>SetBits)]
			*p = max(*p, start+last[id])
		}
	}
	k.tick = start + accesses
}

// Read performs a load or fetch of line la in the set of plan entry e
// (its way hint is ignored) and returns the outcome plus the entry of the
// way the line now occupies. It is bit-identical in behaviour, counters
// and RNG draws to the per-access reference model (see the fuzz and
// differential tests).
//
//rm:hotpath
func (k *Kernel) Read(la uint64, e uint32) (AccessBits, uint32) {
	return k.access(la, e&SetMask, false)
}

// Write performs a store to line la in the set of plan entry e; see Read.
// A write-through miss bypasses the level: it returns no flags and e's
// set with a way-0 hint.
//
//rm:hotpath
func (k *Kernel) Write(la uint64, e uint32) (AccessBits, uint32) {
	return k.access(la, e&SetMask, true)
}

// access is the one slow path: scan the set, serve a hit like the hit
// path does, otherwise pick a victim and fill. Reads never dirty a line;
// write-through store misses leave the level untouched (no fill, no RNG
// draw); write-back hits and fills dirty the line.
//
//rm:hotpath
func (k *Kernel) access(la uint64, set uint32, write bool) (AccessBits, uint32) {
	k.accesses++
	k.c.cold = false
	base := int(set) * k.ways
	for m := k.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k.addrs[base+w] == la {
			k.hits++
			e := set | uint32(w)<<SetBits
			if write {
				k.WriteHit(e)
			} else {
				k.ReadHit(e, 1)
			}
			return BitHit, e
		}
	}
	if write && !k.writeBack {
		return 0, set
	}
	w := k.victim(set)
	r := k.install(la, set, w, write)
	e := set | uint32(w)<<SetBits
	if k.repl == FIFO { // FIFO stamps on every fill, never on hits
		k.tick++
		k.lruTick[base+w] = k.tick
	} else {
		k.ReadHit(e, 1) // LRU stamps, PLRU protects, Random keeps no state
	}
	return r, e
}

// victim picks the way a miss in set fills: a free way first under LRU,
// FIFO and PLRU (then the oldest stamp, or the PLRU tree's choice), any
// way under Random.
//
//rm:hotpath
func (k *Kernel) victim(set uint32) int {
	if k.repl == Random {
		return k.randomWay()
	}
	if free := ^k.valid[set] & k.wayMask; free != 0 {
		return bits.TrailingZeros64(free)
	}
	if k.isPLRU {
		w, node := 0, 0
		treeBits := k.plru[set]
		for level := 0; level < k.plruLevels; level++ {
			bit := int(treeBits >> uint(node) & 1)
			w = w<<1 | bit
			node = 2*node + 1 + bit
		}
		return w
	}
	base := int(set) * k.ways
	oldest, oldestTick := 0, k.lruTick[base]
	for i := 1; i < k.ways; i++ {
		if k.lruTick[base+i] < oldestTick {
			oldest, oldestTick = i, k.lruTick[base+i]
		}
	}
	return oldest
}

// randomWay is Random replacement's evict-on-miss draw: any way with
// probability 1/W, invalid ways included, from the cache's replacement
// stream (same draw order as the per-access reference model). The draw
// is unconditional, so every miss path reaches it.
//
//rm:hotpath
func (k *Kernel) randomWay() int { return k.rng.Intn(k.ways) }

// install places la into way w of set, accounting an eviction (and a
// writeback for a dirty victim), and returns the fill outcome.
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

// plruTables returns, per way w, the tree nodes on the PLRU path to w
// and the node bits that point that path away from w, so a touch is one
// masked store (see ReadHit).
func plruTables(ways, levels int) (path, away []uint64) {
	path, away = make([]uint64, ways), make([]uint64, ways)
	for w := range path {
		node := 0
		for level := 0; level < levels; level++ {
			bit := (w >> uint(levels-1-level)) & 1
			path[w] |= 1 << uint(node)
			if bit == 0 {
				away[w] |= 1 << uint(node)
			}
			node = 2*node + 1 + bit
		}
	}
	return path, away
}
