// Package cache implements the set-associative cache model used by the
// LEON3-like platform simulator: configurable geometry, pluggable placement
// (modulo, XOR-fold, hRP, Random Modulo), the replacement policies relevant
// to MBPTA (random) and to the deterministic baseline (LRU, plus FIFO and
// PLRU for ablations), and write-through/write-back handling.
//
// The model is behavioural, not cycle-structural: a level's accesses
// report hits, misses, evictions and writebacks as AccessBits; the
// simulator in internal/sim converts those into cycles. Placement is
// consulted once per unique line per run: callers build an index plan
// with placement.IndexAll after each reseed and pass each access's
// precomputed set to the level, which is bit-exact to consulting the
// policy on every access as the hardware does (the per-access reference
// model in this package's tests pins that).
package cache

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"strings"

	"repro/internal/placement"
	"repro/internal/prng"
)

// ReplacementKind enumerates replacement policies.
type ReplacementKind int

// Replacement policies.
const (
	LRU    ReplacementKind = iota // least recently used (deterministic baseline)
	Random                        // random replacement (MBPTA-compliant, paper's choice)
	FIFO                          // first-in first-out (ablation)
	PLRU                          // tree pseudo-LRU (ablation)
)

// String returns the report name of the replacement policy.
func (r ReplacementKind) String() string {
	switch r {
	case LRU:
		return "LRU"
	case Random:
		return "Random"
	case FIFO:
		return "FIFO"
	case PLRU:
		return "PLRU"
	default:
		return fmt.Sprintf("ReplacementKind(%d)", int(r))
	}
}

// ReplacementKinds returns every replacement policy in declaration order,
// for service catalogs and usage messages.
func ReplacementKinds() []ReplacementKind {
	return []ReplacementKind{LRU, Random, FIFO, PLRU}
}

// ParseReplacement maps a user-facing replacement-policy name
// (case-insensitive) to its kind, mirroring placement.ParseKind for the
// CLIs and the campaign wire codec.
func ParseReplacement(s string) (ReplacementKind, error) {
	for _, k := range ReplacementKinds() {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q (valid: LRU, Random, FIFO, PLRU)", s)
}

// WritePolicy selects how stores interact with the cache level.
type WritePolicy int

// Write policies. The paper's safety-critical design point is write-through
// no-allocate L1s (Section 3.2: "most processor designs targeting safety
// critical applications typically rely on write-through first-level
// caches") with a write-back L2.
const (
	WriteThrough WritePolicy = iota // stores propagate immediately; a store miss does not allocate
	WriteBack                       // stores allocate and dirty the line; dirty victims write back
)

// String returns the report name of the write policy.
func (w WritePolicy) String() string {
	if w == WriteThrough {
		return "write-through"
	}
	return "write-back"
}

// Config describes one cache level.
type Config struct {
	Name        string          // for reports, e.g. "DL1"
	SizeBytes   int             // total capacity
	Ways        int             // associativity
	LineBytes   int             // line size (32 in the paper's LEON3)
	Placement   placement.Kind  // set-placement function
	Replacement ReplacementKind // replacement policy
	Write       WritePolicy     // write handling
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// WaySizeBytes returns the size of one way, which is the cache segment size
// of the paper.
func (c Config) WaySizeBytes() int { return c.Sets() * c.LineBytes }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	if c.Ways > 64 {
		// The tag state packs per-set valid/dirty flags into one uint64
		// bitmask per set (see Cache), and no modelled platform exceeds
		// 64-way associativity.
		return fmt.Errorf("cache %s: %d ways exceeds the modelled maximum of 64", c.Name, c.Ways)
	}
	s := c.Sets()
	if s < 2 || s&(s-1) != 0 {
		return fmt.Errorf("cache %s: %d sets, must be a power of two >= 2", c.Name, s)
	}
	if s > MaxSets {
		// Index-plan entries pack the set into SetBits bits beside an
		// 8-bit way hint (see SetBits).
		return fmt.Errorf("cache %s: %d sets exceeds the modelled maximum of %d", c.Name, s, MaxSets)
	}
	return nil
}

// Stats reports one level's counters over a run (Cache.End).
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty victims pushed down
	Flushes    uint64 // 0 in a run's Stats: a run starts after its level's flush
}

// MissRatio returns misses/accesses (0 if no accesses).
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one cache level: its placement policy, tag and replacement
// state, and the replay methods that serve its accesses. Not safe for
// concurrent use.
//
// The tag state is struct-of-arrays: one flat line-address slice plus one
// packed valid/dirty bitmask per set (Validate caps Ways at 64). The
// simulator stores the full line address, so no placement needs its index
// bits kept in the tag, as hRP's would in hardware (paper, Section 3.1).
// Keeping the per-way metadata in set-local bitmasks lets an access probe
// a whole set with one load and a bit scan instead of striding across
// array-of-structs entries. The slices never reallocate after
// construction; Flush and Reseed clear them in place.
//
// Accesses split into a hit path and one generic slow path. The hit path
// is a set of inlinable methods the replay loops call after a Hinted
// check on an index-plan entry has found the line in its hinted way:
// ReadHit and WriteHit apply the replacement and dirty-bit updates of a
// hit without scanning the set, and Hits adds the hits the loop counted.
// A hinted hit is the hit the scan would find, since a line occupies at
// most one way of its set (it is installed only on a miss). Everything
// else — misses, way mispredictions and the security engine's accesses —
// goes through Read and Write, one scan-and-fill routine that switches on
// the replacement kind and write arrangement and returns the plan entry
// of the way it hit or filled, so the caller can refresh its hint.
// Replacement-RNG draws go to the level's own generator, in the order a
// per-access model draws them, so the replay stays bit-identical to the
// reference model in this package's tests. Statistics count per run,
// between Begin and End.
type Cache struct {
	// Hot-path state first: the tag and replacement state, one of
	// lruTick (LRU/FIFO per-line stamps) and plru (per-set tree bits)
	// depending on the kind.
	addrs   []uint64 // sets*ways line addresses, set-major
	valid   []uint64 // per-set valid bitmask, bit w = way w
	dirty   []uint64 // per-set dirty bitmask, bit w = way w
	lruTick []uint64
	plru    []uint64
	rng     *prng.PRNG

	ways       int
	wayMask    uint64
	plruLevels int
	tick       uint64
	runTick    uint64 // tick at the run's Begin (RestoreLRU)

	// PLRU touch tables (plruTables), nil under other kinds.
	plruPath, plruAway []uint64

	// The level's replacement kind and write arrangement; isLRU and
	// isPLRU duplicate repl so the hit path stays within the inlining
	// budget.
	repl          ReplacementKind
	isLRU, isPLRU bool
	writeBack     bool // stores allocate and dirty lines; write-through store misses bypass

	// The run's counters, reset by Begin and reported by End.
	accesses, hits, evictions, writebacks uint64

	// cold holds from construction and every Flush until the level's
	// next access (see access): the level is empty.
	cold bool

	cfg Config
	pol placement.Policy
}

// New builds a cache level, instantiating its placement policy from
// cfg.Placement.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pol, err := placement.New(cfg.Placement, cfg.Sets())
	if err != nil {
		return nil, err
	}
	c := &Cache{
		addrs:      make([]uint64, cfg.Sets()*cfg.Ways),
		valid:      make([]uint64, cfg.Sets()),
		dirty:      make([]uint64, cfg.Sets()),
		rng:        prng.New(initialStream(cfg.Name)),
		ways:       cfg.Ways,
		wayMask:    1<<uint(cfg.Ways) - 1,
		plruLevels: bits.TrailingZeros(uint(cfg.Ways)),
		repl:       cfg.Replacement,
		isLRU:      cfg.Replacement == LRU,
		isPLRU:     cfg.Replacement == PLRU,
		writeBack:  cfg.Write == WriteBack,
		cold:       true,
		cfg:        cfg,
		pol:        pol,
	}
	switch cfg.Replacement {
	case LRU, FIFO:
		c.lruTick = make([]uint64, len(c.addrs))
	case PLRU:
		if cfg.Ways&(cfg.Ways-1) != 0 {
			return nil, fmt.Errorf("cache %s: PLRU needs power-of-two ways, got %d", cfg.Name, cfg.Ways)
		}
		c.plru = make([]uint64, cfg.Sets())
		c.plruPath, c.plruAway = plruTables(c.ways, c.plruLevels)
	case Random:
		// rng drawn per eviction
	default:
		return nil, fmt.Errorf("cache %s: unknown replacement %d", cfg.Name, int(cfg.Replacement))
	}
	return c, nil
}

// initialStream seeds the pre-Reseed replacement RNG from the level's
// configured name (FNV-1a over cfg.Name). Seeding every level with the
// same constant would hand all un-reseeded Random-replacement levels
// (IL1/DL1/L2) one identical victim stream and therefore correlated
// evictions; deriving per name keeps fresh distinctly-named levels
// independent (same-named caches — e.g. the IL1s of a multi-core
// System — still coincide until their Reseed, the documented run
// protocol). Reseed overwrites this state entirely, so every
// post-Reseed sequence is unchanged.
func initialStream(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// Config returns the level configuration.
func (c *Cache) Config() Config { return c.cfg }

// Policy returns the placement policy (for reports and hardware costing).
func (c *Cache) Policy() placement.Policy { return c.pol }

// Reseed installs a fresh per-run seed into the placement policy and the
// replacement randomness, then flushes contents: after a placement change
// the old contents are unreachable, so the hardware flushes for consistency
// (paper, Section 3: "on every seed change ... cache contents must be
// flushed for consistency purposes").
//
// Flushing discards dirty lines without reporting them: the run boundary is
// also a task boundary, and the paper's analysis unit is run-to-completion.
func (c *Cache) Reseed(seed uint64) {
	c.pol.Reseed(seed)
	c.rng.Reseed(seed ^ 0x52455045)
	c.Flush()
}

// Flush invalidates every line.
func (c *Cache) Flush() {
	for i := range c.valid {
		c.valid[i] = 0
		c.dirty[i] = 0
	}
	if c.lruTick != nil {
		for i := range c.lruTick {
			c.lruTick[i] = 0
		}
	}
	if c.plru != nil {
		for i := range c.plru {
			c.plru[i] = 0
		}
	}
	c.cold = true
}

// HitElisionLimit returns how many lines a read fills in one set of this
// level may hold in a run for every read of each of them after its first
// to be a hit a replay may skip, or 0 if no read may be skipped. stores
// reports whether the replayed stream stores to the level.
//
// Skipping needs a cold level (no access since construction, Flush or
// Reseed), so every set starts empty. Random draws its victim among all
// ways, invalid ones included, so a second line filling into the set can
// evict the first: the limit is 1. FIFO and LRU fill invalid ways first,
// so up to Ways lines never evict each other: the limit is Ways. Random
// and FIFO hits leave no state. LRU hits advance the tick and stamp the
// line, so a replay that skips them must restore both (RestoreLRU);
// that needs every access to tick once, which a store missing a
// no-allocate level does not, so a stored-to LRU level skips nothing. A
// stored-to level that allocates on write skips nothing either: the
// paper's platform has write-through no-allocate L1s, whose stores fill
// no line. PLRU skips nothing: its tree bits record the order of the last
// touches.
func (c *Cache) HitElisionLimit(stores bool) int {
	if !c.cold || stores && (c.repl == LRU || c.AllocatesOnWrite()) {
		return 0
	}
	switch c.repl {
	case Random:
		return 1
	case LRU, FIFO:
		return c.ways
	default:
		return 0
	}
}

// AllocatesOnWrite reports whether a store miss fills the line in: only
// on a write-back level.
func (c *Cache) AllocatesOnWrite() bool {
	return c.writeBack
}

// LookupLine reports whether line la is present in set, which must equal
// Policy().Index(la) under the current seed, without updating
// replacement state or counters. The security attack rounds use it to
// test eviction without perturbing the replacement state under
// measurement.
//
//rm:hotpath
func (c *Cache) LookupLine(la uint64, set uint32) bool {
	return c.probe(la, int(set)) >= 0
}

// probe returns the way holding la in set, or -1. It scans only the valid
// ways via the set's bitmask.
func (c *Cache) probe(la uint64, set int) int {
	base := set * c.ways
	for m := c.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.addrs[base+w] == la {
			return w
		}
	}
	return -1
}
