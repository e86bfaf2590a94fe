package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/trace"
)

// System models the paper's four-core platform: per-core private L1s and
// L2 partitions, with a shared memory bus arbitrated round-robin. The L2
// partitioning removes storage interference (as in the paper); the bus
// model retains bandwidth interference, which is what the MBPTA multicore
// literature the paper cites analyses. This is the substrate behind the
// multicore example and the contention ablation bench.
type System struct {
	cores []*Core
	lat   Latencies
	// busService is the bus occupancy of one memory transaction.
	busService uint64
}

// NewSystem builds n identical cores from cfg.
func NewSystem(cfg Config, n int) (*System, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: system needs at least one core, got %d", n)
	}
	lat, err := cfg.Lat.Normalize()
	if err != nil {
		return nil, err
	}
	s := &System{lat: lat}
	s.busService = s.lat.Memory / 2 // transfer slot; the rest is DRAM latency
	if s.busService == 0 {
		s.busService = 1
	}
	for i := 0; i < n; i++ {
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, c)
	}
	return s, nil
}

// Cores returns the core models.
func (s *System) Cores() []*Core { return s.cores }

// Reseed reseeds every core with seeds derived from runSeed.
func (s *System) Reseed(runSeed uint64) {
	for i, c := range s.cores {
		c.Reseed(runSeed ^ uint64(i+1)*0x9E3779B97F4A7C15)
	}
}

// RunAll replays one compiled trace per core concurrently under the
// shared-bus model and returns per-core results. A nil entry is an idle
// core. As with RunCompiled, each Result reports this call only: every
// active core begins its three kernels on entry and takes the per-call
// Stats from End, so repeated RunAll calls (or interleaved RunCompiled
// calls) never double-count. RunAll panics if len(cts) differs from the
// core count or a compiled line size is not the platform's.
//
// The model is event-driven: each core retires accesses in order; accesses
// that need a memory transaction (L2 miss or L2 writeback) must win the
// bus, which serves one transaction at a time. Arbitration is round-robin:
// among cores whose request is pending when the bus frees, the one
// following the last grantee wins. This is a time-composable bus in the
// sense of the MBPTA multicore designs the paper cites.
func (s *System) RunAll(cts []*trace.Compiled) []Result {
	n := len(s.cores)
	if len(cts) != n {
		panic("sim: RunAll needs one compiled trace per core")
	}
	for i, c := range s.cores {
		if ct := cts[i]; ct != nil {
			if ct.LineBytes != c.lineBytes {
				badLineSize(ct.LineBytes, c.lineBytes)
			}
			c.preparePlans(ct)
			c.kil1.Begin()
			c.kdl1.Begin()
			c.kl2.Begin()
		}
	}
	results := make([]Result, n)
	clocks := make([]uint64, n) // core-local completion time
	pos := make([]int, n)       // next op index per core
	var busFreeAt uint64
	lastGrant := n - 1

	for {
		// Pick the next core to advance: the unfinished core with the
		// earliest local clock; round-robin from lastGrant breaks ties so
		// bus contention resolves fairly.
		sel := -1
		for off := 1; off <= n; off++ {
			i := (lastGrant + off) % n
			if cts[i] == nil || pos[i] >= len(cts[i].Ops) {
				continue
			}
			if sel == -1 || clocks[i] < clocks[sel] {
				sel = i
			}
		}
		if sel == -1 {
			break
		}
		ct := cts[sel]
		local, memTxns := s.cores[sel].step(ct, ct.Ops[pos[sel]])
		pos[sel]++
		t := clocks[sel] + local
		for k := 0; k < memTxns; k++ {
			grant := t
			if busFreeAt > grant {
				grant = busFreeAt
			}
			busFreeAt = grant + s.busService
			lastGrant = sel
			t = grant + s.busService + (s.lat.Memory - s.busService)
		}
		clocks[sel] = t
	}

	for i, c := range s.cores {
		if cts[i] == nil {
			continue
		}
		results[i] = Result{
			Cycles:   clocks[i],
			Accesses: len(cts[i].Ops),
			IL1:      c.kil1.End(),
			DL1:      c.kdl1.End(),
			L2:       c.kl2.End(),
		}
	}
	return results
}

// step replays one op of ct through the core's kernels and returns the
// core-local cycles plus the number of memory-bus transactions it needs
// (an L2 miss or fill, and an L2 dirty-victim writeback, one each). The
// index plans must already describe ct.
func (c *Core) step(ct *trace.Compiled, op trace.Op) (local uint64, memTxns int) {
	lat := c.lat
	var b cache.AccessBits
	switch op.Kind {
	case trace.Fetch:
		local = lat.L1Hit
		if c.kil1.Read(ct.ILines[op.ID], c.plan.il1[op.ID])&cache.BitHit != 0 {
			return local, 0
		}
		local += lat.L2Hit
		b = c.kl2.Read(ct.ILines[op.ID], c.plan.l2i[op.ID])
		if b&cache.BitHit == 0 {
			memTxns++
		}
	case trace.Load:
		local = lat.L1Hit
		if c.kdl1.Read(ct.DLines[op.ID], c.plan.dl1[op.ID])&cache.BitHit != 0 {
			return local, 0
		}
		local += lat.L2Hit
		b = c.kl2.Read(ct.DLines[op.ID], c.plan.l2d[op.ID])
		if b&cache.BitHit == 0 {
			memTxns++
		}
	default: // Store
		local = lat.L1Hit + lat.StoreBus
		c.kdl1.Write(ct.DLines[op.ID], c.plan.dl1[op.ID]) // write-through: updates line if present
		b = c.kl2.Write(ct.DLines[op.ID], c.plan.l2d[op.ID])
		if b&cache.BitFilled != 0 {
			memTxns++ // write-allocate fill
		}
	}
	if b&cache.BitWriteback != 0 {
		memTxns++
	}
	return local, memTxns
}
