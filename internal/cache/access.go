package cache

import "math/bits"

// AccessBits is the compact outcome of one access: which of hit, fill,
// eviction and writeback happened. Callers charge cycles and count
// memory transactions from these flags alone; an access never reports a
// victim's address because no caller routes it anywhere.
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
// always fit, and an entry fresh from IndexAll hints way 0. Every reader
// of an entry masks the set with SetMask; the slow paths accept either
// form.
const (
	SetBits = 24
	SetMask = 1<<SetBits - 1
	MaxSets = 1 << SetBits
)

// Begin starts a run: the counters reset and the replacement tick is
// noted as the run's start (see RestoreLRU).
//
//rm:hotpath
func (c *Cache) Begin() {
	c.runTick = c.tick
	c.accesses, c.hits, c.evictions, c.writebacks = 0, 0, 0, 0
}

// End finishes a run and returns its Stats: the counters since Begin.
//
//rm:hotpath
func (c *Cache) End() Stats {
	return Stats{
		Accesses:   c.accesses,
		Hits:       c.hits,
		Misses:     c.accesses - c.hits,
		Evictions:  c.evictions,
		Writebacks: c.writebacks,
	}
}

// Hinted reports whether the way plan entry e hints holds line la in e's
// set: one tag compare instead of a set scan. A stale hint (the line was
// evicted or moved, or the entry was rebuilt) fails the check and costs
// one slow-path access, so hints never need invalidating.
//
//rm:hotpath
func (c *Cache) Hinted(la uint64, e uint32) bool {
	set, w := e&SetMask, e>>SetBits
	return c.valid[set]>>(w&63)&1 != 0 && c.addrs[int(set)*c.ways+int(w)] == la
}

// ReadHit applies n read hits on the line in the way e hints, which a
// Hinted check has confirmed: LRU advances its tick by n and stamps the
// way once, leaving the state n separate hits leave; PLRU protects the
// way (idempotent); FIFO and Random change nothing. The caller counts the
// hits (Hits).
//
//rm:hotpath
func (c *Cache) ReadHit(e uint32, n uint64) {
	if c.isLRU {
		c.tick += n
		c.lruTick[int(e&SetMask)*c.ways+int(e>>SetBits)] = c.tick
	} else if c.isPLRU {
		set, w := e&SetMask, e>>SetBits
		c.plru[set] = c.plru[set]&^c.plruPath[w] | c.plruAway[w]
	}
}

// WriteHit applies a store hit on the line in the way e hints: ReadHit's
// replacement update, plus the dirty bit on a write-back level.
//
//rm:hotpath
func (c *Cache) WriteHit(e uint32) {
	c.ReadHit(e, 1)
	if c.writeBack {
		c.dirty[e&SetMask] |= 1 << (e >> SetBits)
	}
}

// Hits adds n hits served by the hit path to the run's counters.
//
//rm:hotpath
func (c *Cache) Hits(n uint64) {
	c.accesses += n
	c.hits += n
}

// RestoreLRU finishes an LRU run that skipped read hits: it leaves the
// tick and stamps that replaying every access would have left. The run
// started cold and every access ticks once, so the tick becomes the
// run's starting tick (noted by Begin) plus accesses, and each resident
// line's stamp the starting tick plus the accesses up to its last one.
// lines, plan and last hold, per line ID, the line address, its plan
// entry and that count; an ID's line is resident where its entry's way
// hint holds it (the last ID to touch a line keeps an exact hint), and
// IDs sharing a line take the latest count. It does nothing on other
// kinds.
//
//rm:hotpath
func (c *Cache) RestoreLRU(lines []uint64, plan []uint32, last []uint64, accesses uint64) {
	if !c.isLRU {
		return
	}
	start := c.runTick
	plan = plan[:len(lines)]
	for id, e := range plan {
		if c.Hinted(lines[id], e) {
			c.lruTick[int(e&SetMask)*c.ways+int(e>>SetBits)] = 0
		}
	}
	for id, e := range plan {
		if c.Hinted(lines[id], e) {
			p := &c.lruTick[int(e&SetMask)*c.ways+int(e>>SetBits)]
			*p = max(*p, start+last[id])
		}
	}
	c.tick = start + accesses
}

// Read performs a load or fetch of line la in the set of plan entry e
// (its way hint is ignored) and returns the outcome plus the entry of the
// way the line now occupies. It is bit-identical in behaviour, counters
// and RNG draws to the per-access reference model (see the fuzz and
// differential tests).
//
//rm:hotpath
func (c *Cache) Read(la uint64, e uint32) (AccessBits, uint32) {
	return c.access(la, e&SetMask, false)
}

// Write performs a store to line la in the set of plan entry e; see Read.
// A write-through miss bypasses the level: it returns no flags and e's
// set with a way-0 hint.
//
//rm:hotpath
func (c *Cache) Write(la uint64, e uint32) (AccessBits, uint32) {
	return c.access(la, e&SetMask, true)
}

// access is the one slow path: scan the set, serve a hit like the hit
// path does, otherwise pick a victim and fill. Reads never dirty a line;
// write-through store misses leave the level untouched (no fill, no RNG
// draw); write-back hits and fills dirty the line.
//
//rm:hotpath
func (c *Cache) access(la uint64, set uint32, write bool) (AccessBits, uint32) {
	c.accesses++
	c.cold = false
	base := int(set) * c.ways
	for m := c.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.addrs[base+w] == la {
			c.hits++
			e := set | uint32(w)<<SetBits
			if write {
				c.WriteHit(e)
			} else {
				c.ReadHit(e, 1)
			}
			return BitHit, e
		}
	}
	if write && !c.writeBack {
		return 0, set
	}
	w := c.victim(set)
	r := c.install(la, set, w, write)
	e := set | uint32(w)<<SetBits
	if c.repl == FIFO { // FIFO stamps on every fill, never on hits
		c.tick++
		c.lruTick[base+w] = c.tick
	} else {
		c.ReadHit(e, 1) // LRU stamps, PLRU protects, Random keeps no state
	}
	return r, e
}

// victim picks the way a miss in set fills: a free way first under LRU,
// FIFO and PLRU (then the oldest stamp, or the PLRU tree's choice), any
// way under Random.
//
//rm:hotpath
func (c *Cache) victim(set uint32) int {
	if c.repl == Random {
		return c.randomWay()
	}
	if free := ^c.valid[set] & c.wayMask; free != 0 {
		return bits.TrailingZeros64(free)
	}
	if c.isPLRU {
		w, node := 0, 0
		treeBits := c.plru[set]
		for level := 0; level < c.plruLevels; level++ {
			bit := int(treeBits >> uint(node) & 1)
			w = w<<1 | bit
			node = 2*node + 1 + bit
		}
		return w
	}
	base := int(set) * c.ways
	oldest, oldestTick := 0, c.lruTick[base]
	for i := 1; i < c.ways; i++ {
		if c.lruTick[base+i] < oldestTick {
			oldest, oldestTick = i, c.lruTick[base+i]
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
func (c *Cache) randomWay() int { return c.rng.Intn(c.ways) }

// install places la into way w of set, accounting an eviction (and a
// writeback for a dirty victim), and returns the fill outcome.
//
//rm:hotpath
func (c *Cache) install(la uint64, set uint32, w int, dirty bool) AccessBits {
	bit := uint64(1) << uint(w)
	r := BitFilled
	if c.valid[set]&bit != 0 {
		r |= BitEvicted
		c.evictions++
		if c.dirty[set]&bit != 0 {
			r |= BitWriteback
			c.writebacks++
		}
	}
	c.addrs[int(set)*c.ways+w] = la
	c.valid[set] |= bit
	if dirty {
		c.dirty[set] |= bit
	} else {
		c.dirty[set] &^= bit
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
