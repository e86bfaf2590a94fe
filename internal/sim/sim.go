// Package sim implements the LEON3-like platform timing model on which the
// paper's experiments run: an in-order core with private IL1 and DL1
// caches, a per-core partition of the shared L2, and a fixed-latency
// memory. It substitutes the paper's FPGA prototype: the cache behaviour
// is modelled bit-exactly, the pipeline is reduced to cycle accounting,
// which preserves the placement-induced execution-time distributions that
// MBPTA analyses. Every run replays a compiled trace (trace.Compiled)
// through one loop, RunCompiled. The shared-bus model (System.RunAll)
// runs it per core, logging the ops that fill the core's L2 partition,
// then merges only those ops on the bus. That split is exact: a core's
// caches are private, so its hits, misses and replacement draws depend
// on its own access order, never on timing; the bus only delays it.
package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/prng"
)

// The cycle charges of the memory hierarchy, those of a LEON3-class
// microcontroller: single-cycle L1, on-chip L2 partition, external SDRAM.
const (
	l1Hit      = 1  // cycles per instruction/data access served by L1
	l2Hit      = 8  // extra cycles for an L1 miss served by the L2 partition
	memLatency = 28 // extra cycles for an L2 miss served by memory
	storeBus   = 2  // cycles per store spent in the write-through path
	writeback  = 6  // cycles per dirty L2 victim pushed to memory
)

// Config assembles a single-core platform.
type Config struct {
	IL1, DL1, L2 cache.Config
}

// Result reports one run of a trace.
type Result struct {
	Cycles   uint64
	Accesses int
	IL1      cache.Stats
	DL1      cache.Stats
	L2       cache.Stats
}

// Core is a single LEON3-like core with its cache hierarchy.
// Not safe for concurrent use.
type Core struct {
	il1, dl1, l2 *cache.Cache
	// lineBytes is the line size every level shares (New enforces it),
	// and so the only line size a compiled trace may carry here.
	lineBytes int

	// plan is the reusable per-run index-plan scratch (see RunCompiled).
	plan indexPlan
	log  *txnLog // System.RunAll's log while it replays this core, else nil
}

// New builds the platform. The L2 configuration describes this core's
// partition of the shared L2 (the paper partitions the L2 across the four
// cores, so a single-task experiment sees a private 128KB slice). Every
// level must use the same line size: a compiled trace numbers lines of
// one size.
func New(cfg Config) (*Core, error) {
	if cfg.DL1.LineBytes != cfg.IL1.LineBytes || cfg.L2.LineBytes != cfg.IL1.LineBytes {
		return nil, fmt.Errorf("sim: all levels must share one line size, got IL1 %dB, DL1 %dB, L2 %dB",
			cfg.IL1.LineBytes, cfg.DL1.LineBytes, cfg.L2.LineBytes)
	}
	il1, err := cache.New(cfg.IL1)
	if err != nil {
		return nil, fmt.Errorf("sim: IL1: %w", err)
	}
	dl1, err := cache.New(cfg.DL1)
	if err != nil {
		return nil, fmt.Errorf("sim: DL1: %w", err)
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("sim: L2: %w", err)
	}
	return &Core{
		il1: il1, dl1: dl1, l2: l2,
		lineBytes: cfg.IL1.LineBytes,
		plan: indexPlan{
			occ: make([]uint32, max(cfg.IL1.Sets(), cfg.DL1.Sets())),
			rI:  newMissRule(il1),
			rD:  newMissRule(dl1),
		},
	}, nil
}

// Caches returns the three levels, for inspection and reports.
func (c *Core) Caches() (il1, dl1, l2 *cache.Cache) { return c.il1, c.dl1, c.l2 }

// Reseed draws fresh, independent placement/replacement seeds for every
// cache level from the per-run seed and flushes contents, modelling the
// paper's per-run reseeding of the hardware PRNG.
func (c *Core) Reseed(runSeed uint64) {
	c.il1.Reseed(prng.Derive(runSeed, 1))
	c.dl1.Reseed(prng.Derive(runSeed, 2))
	c.l2.Reseed(prng.Derive(runSeed, 3))
}
