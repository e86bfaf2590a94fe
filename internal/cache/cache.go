// Package cache implements the set-associative cache model used by the
// LEON3-like platform simulator: configurable geometry, pluggable placement
// (modulo, XOR-fold, hRP, Random Modulo), the replacement policies relevant
// to MBPTA (random) and to the deterministic baseline (LRU, plus FIFO and
// PLRU for ablations), and write-through/write-back handling.
//
// The model is behavioural, not cycle-structural: a replay Kernel reports
// hits, misses, evictions and writebacks as AccessBits; the simulator in
// internal/sim converts those into cycles. Placement is consulted once per
// unique line per run: callers build an index plan with
// placement.IndexAll after each reseed and pass each access's precomputed
// set to the kernel, which is bit-exact to consulting the policy on every
// access as the hardware does (the per-access reference model in this
// package's tests pins that).
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
	WriteThrough WritePolicy = iota // stores propagate immediately; no dirty lines
	WriteBack                       // stores dirty the line; dirty victims write back
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
	Name         string          // for reports, e.g. "DL1"
	SizeBytes    int             // total capacity
	Ways         int             // associativity
	LineBytes    int             // line size (32 in the paper's LEON3)
	Placement    placement.Kind  // set-placement function
	Replacement  ReplacementKind // replacement policy
	Write        WritePolicy     // write handling
	AllocOnWrite bool            // allocate line on store miss (ignored for WriteThrough L1 style if false)
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
	return nil
}

// Stats accumulates per-level counters across a run.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty victims pushed down
	Flushes    uint64
}

// MissRatio returns misses/accesses (0 if no accesses).
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one cache level. Not safe for concurrent use.
//
// The tag state is struct-of-arrays: one flat line-address slice plus one
// packed valid/dirty bitmask per set (Validate caps Ways at 64). The
// simulator stores the full line address; the hardware-cost model accounts
// separately for whether the real tag array would need the index bits
// (placement.NeedsIndexInTag). Keeping the per-way metadata in set-local
// bitmasks lets the replay kernels probe a whole set with one load and a
// bit scan instead of striding across array-of-structs entries.
type Cache struct {
	cfg   Config
	pol   placement.Policy
	sets  int
	ways  int
	addrs []uint64 // sets*ways line addresses, set-major
	valid []uint64 // per-set valid bitmask, bit w = way w
	dirty []uint64 // per-set dirty bitmask, bit w = way w

	// Replacement state, one of the following depending on kind.
	repl    ReplacementKind
	lruTick []uint64 // LRU/FIFO: per-line timestamp
	tick    uint64
	plru    []uint64 // PLRU: per-set tree bits
	rng     *prng.PRNG

	stats Stats
}

// New builds a cache level. The placement policy is instantiated from
// cfg.Placement; use NewWithPolicy to inject a custom policy.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pol, err := placement.New(cfg.Placement, cfg.Sets())
	if err != nil {
		return nil, err
	}
	return NewWithPolicy(cfg, pol)
}

// NewWithPolicy builds a cache level around an existing placement policy.
// The policy's set count must match the geometry.
func NewWithPolicy(cfg Config, pol placement.Policy) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pol.Sets() != cfg.Sets() {
		return nil, fmt.Errorf("cache %s: policy maps %d sets, geometry has %d", cfg.Name, pol.Sets(), cfg.Sets())
	}
	c := &Cache{
		cfg:   cfg,
		pol:   pol,
		sets:  cfg.Sets(),
		ways:  cfg.Ways,
		addrs: make([]uint64, cfg.Sets()*cfg.Ways),
		valid: make([]uint64, cfg.Sets()),
		dirty: make([]uint64, cfg.Sets()),
		repl:  cfg.Replacement,
		rng:   prng.New(initialStream(cfg.Name)),
	}
	switch cfg.Replacement {
	case LRU, FIFO:
		c.lruTick = make([]uint64, len(c.addrs))
	case PLRU:
		if cfg.Ways&(cfg.Ways-1) != 0 {
			return nil, fmt.Errorf("cache %s: PLRU needs power-of-two ways, got %d", cfg.Name, cfg.Ways)
		}
		c.plru = make([]uint64, cfg.Sets())
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

// Stats returns the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

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
	c.stats.Flushes++
}

// LookupLine reports whether line la is present in set, which must equal
// Policy().Index(la) under the current seed, without updating
// replacement state or counters. The security attack kernels use it to
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
