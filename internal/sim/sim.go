// Package sim implements the LEON3-like platform timing model on which the
// paper's experiments run: an in-order core with private IL1 and DL1
// caches, a per-core partition of the shared L2, and a fixed-latency
// memory. It substitutes the paper's FPGA prototype: the cache behaviour
// is modelled bit-exactly, the pipeline is reduced to cycle accounting,
// which preserves the placement-induced execution-time distributions that
// MBPTA analyses. Every run replays a compiled trace (trace.Compiled)
// through the per-level cache kernels, single-core (RunCompiled) or under
// the shared-bus model (System.RunAll).
package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/prng"
)

// Latencies configures the cycle charges of the memory hierarchy.
// Defaults approximate a LEON3-class microcontroller: single-cycle L1,
// on-chip L2 partition, external SDRAM.
type Latencies struct {
	L1Hit     uint64 // cycles per instruction/data access served by L1
	L2Hit     uint64 // extra cycles for an L1 miss served by the L2 partition
	Memory    uint64 // extra cycles for an L2 miss served by memory
	StoreBus  uint64 // cycles per store spent in the write-through path
	Writeback uint64 // cycles per dirty L2 victim pushed to memory
}

// DefaultLatencies returns the LEON3-class latency set used throughout the
// evaluation.
func DefaultLatencies() Latencies {
	return Latencies{L1Hit: 1, L2Hit: 8, Memory: 28, StoreBus: 2, Writeback: 6}
}

// Validate reports whether a non-zero latency set can drive the platform
// models. Memory must be at least one cycle: the shared-bus model carves
// its transfer slot out of it (busService = max(1, Memory/2)), so a zero
// memory latency would make Memory - busService wrap uint64 and charge
// absurd cycle counts. The other charges may legitimately be zero.
func (l Latencies) Validate() error {
	if l.Memory == 0 {
		return fmt.Errorf("sim: Memory latency must be at least 1 cycle (a fully zero Latencies selects DefaultLatencies)")
	}
	return nil
}

// Normalize resolves the latency set the platform constructors install:
// the zero value selects DefaultLatencies (the legacy convention), any
// partially-specified value must pass Validate. New and NewSystem apply
// this, so a struct with some fields set and Memory left at zero is a
// construction error instead of a uint64 underflow at run time.
func (l Latencies) Normalize() (Latencies, error) {
	if l == (Latencies{}) {
		return DefaultLatencies(), nil
	}
	if err := l.Validate(); err != nil {
		return Latencies{}, err
	}
	return l, nil
}

// Config assembles a single-core platform.
type Config struct {
	IL1, DL1, L2 cache.Config
	Lat          Latencies
}

// Result reports one run of a trace.
type Result struct {
	Cycles   uint64
	Accesses int
	IL1      cache.Stats
	DL1      cache.Stats
	L2       cache.Stats
}

// IPA returns cycles per access, a convenient normalized metric.
func (r Result) IPA() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Accesses)
}

// Core is a single LEON3-like core with its cache hierarchy.
// Not safe for concurrent use.
type Core struct {
	il1, dl1, l2 *cache.Cache
	lat          Latencies
	// lineBytes is the line size every level shares (New enforces it),
	// and so the only line size a compiled trace may carry here.
	lineBytes int

	// plan is the reusable per-run index-plan scratch (see RunCompiled).
	plan indexPlan
	// kil1/kdl1/kl2 are the monomorphic replay kernels, bound once per
	// level at construction (each kernel aliases its cache's tag state
	// and pre-selects the access functions for the level's replacement
	// kind and write arrangement).
	kil1, kdl1, kl2 *cache.Kernel
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
	lat, err := cfg.Lat.Normalize()
	if err != nil {
		return nil, err
	}
	return &Core{
		il1: il1, dl1: dl1, l2: l2, lat: lat,
		lineBytes: cfg.IL1.LineBytes,
		kil1:      cache.NewKernel(il1),
		kdl1:      cache.NewKernel(dl1),
		kl2:       cache.NewKernel(l2),
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

// Flush empties all levels without changing seeds (used by the
// deterministic baseline, which has no seeds but starts runs cold).
func (c *Core) Flush() {
	c.il1.Flush()
	c.dl1.Flush()
	c.l2.Flush()
}
