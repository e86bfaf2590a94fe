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
}

// busService is the bus occupancy of one memory transaction: its transfer
// slot. The rest of memLatency is DRAM latency.
const busService = memLatency / 2

// NewSystem builds n identical cores from cfg.
func NewSystem(cfg Config, n int) (*System, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: system needs at least one core, got %d", n)
	}
	s := &System{}
	for i := 0; i < n; i++ {
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, c)
	}
	return s, nil
}

// Reseed reseeds every core with seeds derived from runSeed.
func (s *System) Reseed(runSeed uint64) {
	for i, c := range s.cores {
		c.Reseed(runSeed ^ uint64(i+1)*0x9E3779B97F4A7C15)
	}
}

// RunAll replays one compiled trace per core concurrently under the
// shared-bus model and returns per-core results. A nil entry is an idle
// core. As with RunCompiled, each Result reports this call only: every
// active core begins its three levels on entry and takes the per-call
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
			c.il1.Begin()
			c.dl1.Begin()
			c.l2.Begin()
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
		op := ct.Ops[pos[sel]]
		local, memTxns := s.cores[sel].step(ct, op)
		pos[sel]++
		t := clocks[sel] + local
		for k := 0; k < memTxns; k++ {
			grant := t
			if busFreeAt > grant {
				grant = busFreeAt
			}
			busFreeAt = grant + busService
			lastGrant = sel
			t = grant + memLatency // the slot, then the rest of the DRAM latency
		}
		// The folded reads that directly followed op are L1 hits: they
		// retire right after it, one l1Hit each.
		clocks[sel] = t + uint64(op.Trail)*l1Hit
	}

	for i, c := range s.cores {
		if cts[i] == nil {
			continue
		}
		results[i] = Result{
			Cycles:   clocks[i],
			Accesses: cts[i].Accesses,
			IL1:      c.il1.End(),
			DL1:      c.dl1.End(),
			L2:       c.l2.End(),
		}
	}
	return results
}

// step replays one op of ct through the core's levels and returns the
// core-local cycles plus the number of memory-bus transactions it needs
// (an L2 fill, and an L2 dirty-victim writeback, one each). The reads
// folded into the op are L1 hits, so they add no transactions; their
// cycles are charged where they stood in the trace, through the Trail of
// the op they followed (see RunAll). The index plans must already
// describe ct.
func (c *Core) step(ct *trace.Compiled, op trace.Op) (local uint64, memTxns int) {
	id := op.ID
	var b cache.AccessBits
	switch op.Kind {
	case trace.Fetch:
		local = l1Hit
		la := ct.ILines[id]
		if !l1Read(c.il1, &c.plan.il1[id], la, op.Rep) {
			return local, 0
		}
		local += l2Hit
		b = c.l2Read(la, &c.plan.l2i[id])
	case trace.Load:
		local = l1Hit
		la := ct.DLines[id]
		if !l1Read(c.dl1, &c.plan.dl1[id], la, op.Rep) {
			return local, 0
		}
		local += l2Hit
		b = c.l2Read(la, &c.plan.l2d[id])
	default: // Store
		local = l1Hit + storeBus
		b = c.store(ct.DLines[id], &c.plan.dl1[id], &c.plan.l2d[id], true)
	}
	if b&cache.BitFilled != 0 {
		memTxns++
	}
	if b&cache.BitWriteback != 0 {
		memTxns++
	}
	return local, memTxns
}

// l1Read serves an L1 read and the rep reads folded into it: a hinted
// hit, otherwise l1Slow. It reports whether the read missed the L1.
func l1Read(l1 *cache.Cache, e *uint32, la uint64, rep uint16) bool {
	if l1.Hinted(la, *e) {
		n := 1 + uint64(rep)
		l1.ReadHit(*e, n)
		l1.Hits(n)
		return false
	}
	return l1Slow(l1, e, la, rep)&cache.BitHit == 0
}
