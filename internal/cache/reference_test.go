package cache

// The per-address reference model of a cache level: byte- and
// line-address accesses that consult the placement policy per access and
// branch on the replacement kind and write policy per access. It is the
// oracle a level's replay methods (Cache.Read, Cache.ReadHit, ...) are
// pinned against — see FuzzAccessEquivalence and
// TestKernelEquivalenceAllConfigs — and lives in a test file because
// production replays only through those methods.

import "math/bits"

// refCache runs the reference model on a level's tag and replacement
// state. It keeps its own cumulative Stats: the level itself counts only
// per run, between Begin and End.
type refCache struct {
	*Cache
	stats Stats
}

// newRef builds a reference-model level.
func newRef(cfg Config) (*refCache, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &refCache{Cache: c}, nil
}

// Result reports the outcome of one access.
type Result struct {
	Hit           bool
	Evicted       bool   // a valid line was displaced
	WritebackAddr uint64 // line address pushed down (valid only if Writeback)
	Writeback     bool   // the displaced line was dirty
	Filled        bool   // a new line was installed (miss with allocation)
}

// ResetStats zeroes the counters without touching cache contents.
func (c *refCache) ResetStats() { c.stats = Stats{} }

// LineAddr converts a byte address to a line address.
func (c *refCache) LineAddr(addr uint64) uint64 {
	return addr >> uint(bits.TrailingZeros(uint(c.cfg.LineBytes)))
}

// Lookup reports whether the line holding addr is present, without updating
// replacement state or counters.
func (c *refCache) Lookup(addr uint64) bool {
	la := c.LineAddr(addr)
	set := int(c.pol.Index(la))
	return c.probe(la, set) >= 0
}

// Read performs a load or instruction fetch for addr.
func (c *refCache) Read(addr uint64) Result { return c.access(addr, false) }

// Write performs a store to addr. Under WriteThrough the line is updated if
// present and a miss does not allocate. Under WriteBack the line is
// allocated on miss and dirtied.
func (c *refCache) Write(addr uint64) Result { return c.access(addr, true) }

// ReadLine is Read for a line address with a precomputed set index, the
// shape of an index-plan lookup (placement.IndexAll). set must equal
// Policy().Index(la) under the current seed; behaviour, counters and
// replacement-RNG draws are then bit-identical to Read of any byte
// address in line la.
func (c *refCache) ReadLine(la uint64, set uint32) Result {
	return c.accessLine(la, int(set), false)
}

// WriteLine is Write for a line address with a precomputed set index; see
// ReadLine for the contract.
func (c *refCache) WriteLine(la uint64, set uint32) Result {
	return c.accessLine(la, int(set), true)
}

func (c *refCache) access(addr uint64, isWrite bool) Result {
	la := c.LineAddr(addr)
	return c.accessLine(la, int(c.pol.Index(la)), isWrite)
}

func (c *refCache) accessLine(la uint64, set int, isWrite bool) Result {
	c.stats.Accesses++

	if w := c.probe(la, set); w >= 0 {
		c.stats.Hits++
		c.touch(set, w)
		if isWrite && c.cfg.Write == WriteBack {
			c.dirty[set] |= 1 << uint(w)
		}
		return Result{Hit: true}
	}

	c.stats.Misses++
	if isWrite && !c.AllocatesOnWrite() {
		// Write-through: the store bypasses this level.
		return Result{}
	}
	res := Result{Filled: true}
	w := c.victim(set)
	bit := uint64(1) << uint(w)
	if c.valid[set]&bit != 0 {
		res.Evicted = true
		c.stats.Evictions++
		if c.dirty[set]&bit != 0 {
			res.Writeback = true
			res.WritebackAddr = c.addrs[set*c.ways+w]
			c.stats.Writebacks++
		}
	}
	c.addrs[set*c.ways+w] = la
	c.valid[set] |= bit
	if isWrite && c.cfg.Write == WriteBack {
		c.dirty[set] |= bit
	} else {
		c.dirty[set] &^= bit
	}
	c.touch(set, w)
	return res
}

// touch records a use of way w in set for the replacement policy.
func (c *refCache) touch(set, w int) {
	switch c.repl {
	case LRU:
		c.tick++
		c.lruTick[set*c.ways+w] = c.tick
	case FIFO:
		// FIFO only stamps on fill; access() calls touch on both hit and
		// fill, so stamp only when the slot was just (re)written. The fill
		// path overwrites addr first, hits keep the old stamp: emulate by
		// stamping only when the stamp is zero or the line was replaced.
		idx := set*c.ways + w
		if c.lruTick[idx] == 0 {
			c.tick++
			c.lruTick[idx] = c.tick
		}
	case PLRU:
		c.plruTouch(set, w)
	case Random:
		// stateless
	}
}

// victim picks the way to replace in set. Deterministic policies fill
// invalid ways first, as conventional hardware does. Random replacement
// deliberately does not: the MBPTA-compliant evict-on-miss design selects
// any way with probability 1/W on every miss (the LEON-style policy the
// MBPTA literature analyses), which makes even warm-up behaviour
// probabilistic -- the source of run-to-run variability for programs whose
// footprint fits in the cache.
func (c *refCache) victim(set int) int {
	base := set * c.ways
	if c.repl == Random {
		return c.rng.Intn(c.ways)
	}
	if free := ^c.valid[set] & (1<<uint(c.ways) - 1); free != 0 {
		w := bits.TrailingZeros64(free) // lowest invalid way, as a scan would find
		if c.repl == FIFO {
			c.lruTick[base+w] = 0 // force restamp on fill
		}
		return w
	}
	switch c.repl {
	case LRU, FIFO:
		oldest, oldestTick := 0, c.lruTick[base]
		for w := 1; w < c.ways; w++ {
			if c.lruTick[base+w] < oldestTick {
				oldest, oldestTick = w, c.lruTick[base+w]
			}
		}
		if c.repl == FIFO {
			c.lruTick[base+oldest] = 0 // restamp on fill
		}
		return oldest
	case PLRU:
		return c.plruVictim(set)
	default: // Random
		return c.rng.Intn(c.ways)
	}
}

// plruTouch updates the PLRU tree so the path to way w is protected.
func (c *refCache) plruTouch(set, w int) {
	levels := bits.TrailingZeros(uint(c.ways)) // tree depth
	node := 0
	treeBits := c.plru[set]
	for level := 0; level < levels; level++ {
		bit := (w >> uint(levels-1-level)) & 1
		if bit == 0 {
			treeBits |= 1 << uint(node) // point away: to the right
		} else {
			treeBits &^= 1 << uint(node) // point away: to the left
		}
		node = 2*node + 1 + bit
	}
	c.plru[set] = treeBits
}

// plruVictim follows the PLRU tree pointers to the least-recently-protected
// way.
func (c *refCache) plruVictim(set int) int {
	levels := bits.TrailingZeros(uint(c.ways))
	node := 0
	w := 0
	treeBits := c.plru[set]
	for level := 0; level < levels; level++ {
		bit := int(treeBits >> uint(node) & 1)
		w = w<<1 | bit
		node = 2*node + 1 + bit
	}
	return w
}

// Occupancy returns the number of valid lines, for tests.
func (c *Cache) Occupancy() int {
	n := 0
	for _, m := range c.valid {
		n += bits.OnesCount64(m)
	}
	return n
}

// DirtyLines returns the number of dirty lines, for tests.
func (c *Cache) DirtyLines() int {
	n := 0
	for set, m := range c.dirty {
		n += bits.OnesCount64(m & c.valid[set])
	}
	return n
}

// SetContents returns the line addresses currently valid in a set, for
// tests and debugging.
func (c *Cache) SetContents(set int) []uint64 {
	var out []uint64
	base := set * c.ways
	for m := c.valid[set]; m != 0; m &= m - 1 {
		out = append(out, c.addrs[base+bits.TrailingZeros64(m)])
	}
	return out
}
