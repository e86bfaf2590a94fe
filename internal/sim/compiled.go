package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/trace"
)

// indexPlan holds the per-run set-index lookup tables of a compiled run:
// one dense []uint32 per (cache level, line stream), materialized by
// placement.IndexAll right after a reseed fixes the mappings. Each entry
// packs the line's set (low cache.SetBits bits) with a hint of the way
// the line last occupied at that level (top 8 bits): the replay loops
// check the hinted way first and, when the check fails, take the
// level's slow path and store the way it hit or filled back into the
// entry. Hints never need invalidating, since a stale one only costs one
// slow-path access; IndexAll writes fresh entries with a way-0 hint. The
// slices live on the Core and are reused across runs, so a campaign's
// steady state allocates nothing per run.
//
// builtFor remembers which Compiled the current tables describe: plans of
// deterministic (non-Randomized) placement policies are seed-invariant,
// so as long as the same Compiled replays they are rebuilt once and then
// reused across reseeds (hints included) — a baseline Modulo hierarchy
// stops paying O(uniqueLines) per run, and a mixed hierarchy
// (deterministic L1s, randomized L2) pays it only for the randomized
// levels.
//
// The plan also selects the ops a run replays: keep has one bit per op
// (trace.ReplayIndex layout). keepOps rebuilds it every run from the
// fresh L1 plans with a set-occupancy pass over the line IDs, O(unique
// lines): it counts the allocating lines each L1 set receives under this
// run's mapping and keeps, beside the trace's must-replay ops, every
// later read of a line whose set holds more than the level's
// cache.HitElisionLimit (1 under Random, Ways under FIFO and LRU, on a
// cold level; 0, keeping the whole stream, on a warm or PLRU level and on
// a stored-to write-back one). occ is that pass's per-set counter
// scratch, all zero between runs; limI and limD remember the run's L1
// limits for the LRU restores after the loop.
type indexPlan struct {
	il1 []uint32 // IL1 entry per instruction line ID
	dl1 []uint32 // DL1 entry per data line ID
	l2i []uint32 // L2 entry per instruction line ID
	l2d []uint32 // L2 entry per data line ID

	keep []uint64 // per 64-op block: the ops this run replays
	occ  []uint32 // per L1 set: allocating lines this run (keepOps)
	limI int      // this run's IL1 hit elision limit
	limD int      // this run's DL1 hit elision limit

	builtFor *trace.Compiled
}

func planSlot[T uint32 | uint64](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// preparePlans refreshes the per-level index plans for ct. A new Compiled
// (or a first run) sizes and builds everything; on repeat replays of the
// same Compiled only the levels whose placement policy actually
// re-randomizes per seed are rebuilt.
func (c *Core) preparePlans(ct *trace.Compiled) {
	fresh := c.plan.builtFor != ct
	if fresh {
		c.plan.il1 = planSlot(c.plan.il1, len(ct.ILines))
		c.plan.dl1 = planSlot(c.plan.dl1, len(ct.DLines))
		c.plan.l2i = planSlot(c.plan.l2i, len(ct.ILines))
		c.plan.l2d = planSlot(c.plan.l2d, len(ct.DLines))
		c.plan.keep = planSlot(c.plan.keep, trace.Blocks(len(ct.Ops)))
	}
	if fresh || c.il1.Policy().Randomized() {
		placement.IndexAll(c.il1.Policy(), ct.ILines, c.plan.il1)
	}
	if fresh || c.dl1.Policy().Randomized() {
		placement.IndexAll(c.dl1.Policy(), ct.DLines, c.plan.dl1)
	}
	if fresh || c.l2.Policy().Randomized() {
		placement.IndexAll(c.l2.Policy(), ct.ILines, c.plan.l2i)
		placement.IndexAll(c.l2.Policy(), ct.DLines, c.plan.l2d)
	}
	c.plan.builtFor = ct
}

// keepOps fills the plan's keep mask for this run of ct and returns the
// accesses of the reads it skips at IL1 and DL1, which all hit. It must
// run after preparePlans and before the run's first access, while the
// levels' cold state still describes the run's start. A run in which
// neither L1 may skip reads, or of a Compiled without an Index, keeps
// every op without building the index's tables.
//
//rm:hotpath
func (c *Core) keepOps(ct *trace.Compiled) (skipI, skipD uint64) {
	keep := c.plan.keep
	limI, limD := c.il1.HitElisionLimit(false), c.dl1.HitElisionLimit(true)
	if ct.Index == nil {
		limI, limD = 0, 0
	}
	c.plan.limI, c.plan.limD = limI, limD
	if limI == 0 && limD == 0 {
		for b := range keep {
			keep[b] = ^uint64(0)
		}
		if n := len(ct.Ops) & 63; n != 0 {
			keep[len(keep)-1] = 1<<n - 1
		}
		return 0, 0
	}
	t := ct.Index.Tables()
	copy(keep, t.Must)
	skipI = elide(keep, &t.I, c.plan.il1, c.plan.occ, limI)
	skipD = elide(keep, &t.D, c.plan.dl1, c.plan.occ, limD)
	return skipI, skipD
}

// elide adds to keep the later reads of one stream that its L1 may miss
// in this run and returns the accesses of the others. A line allocates
// when the stream reads it (the levels that elide take no fill from a
// store); a set holding more than limit allocating lines keeps every
// later read of its lines, and limit 0 keeps the whole stream. occ must
// be zero on entry and is on return.
//
//rm:hotpath
func elide(keep []uint64, r *trace.LineReads, plan []uint32, occ []uint32, limit int) uint64 {
	if limit == 0 {
		for b, m := range r.All {
			keep[b] |= m
		}
		return 0
	}
	plan = plan[:len(r.Read)]
	for id, read := range r.Read {
		if read {
			occ[plan[id]&cache.SetMask]++
		}
	}
	var skipped uint64
	for id, e := range plan {
		if occ[e&cache.SetMask] <= uint32(limit) {
			skipped += r.Hits[id]
			continue
		}
		for _, i := range r.At[r.Off[id]:r.Off[id+1]] {
			keep[i>>6] |= 1 << (i & 63)
		}
	}
	for _, e := range plan {
		occ[e&cache.SetMask] = 0
	}
	return skipped
}

// ReplayedOps returns the number of ops the last RunCompiled replayed;
// it skipped the rest as guaranteed L1 hits.
func (c *Core) ReplayedOps() int {
	n := 0
	for _, m := range c.plan.keep {
		n += bits.OnesCount64(m)
	}
	return n
}

// RunCompiled executes a compiled trace to completion and returns its
// cycle count and per-level statistics for this run only. Cache contents
// persist across calls; callers fix the run's mapping first (Reseed, or
// Flush for a seedless baseline), matching the paper's run-to-completion
// analysis unit. RunCompiled then refreshes the index plans (skipping
// seed-invariant deterministic placements, see preparePlans) and replays
// the ops through the three cache levels. Placement hashing is hoisted
// out of the loop into array lookups, and an L1 or L2 hit costs one tag
// compare in the way the plan entry hints plus the level's inlined hit
// update; only misses and way mispredictions call the level's slow path. The reads an op folds (trace.Op.Rep) ride
// along with it, so guaranteed hits cost nothing per access. Hits count
// in loop locals, and the L1Hit and StoreBus charges every access pays
// are added once per run.
//
// RunCompiled replays only the ops this run's mapping can make miss:
// every store, each line ID's first read, and every read of a line whose
// L1 set is contended in this run (the trace's ReplayIndex and keepOps).
// A set is uncontended when it receives at most cache.HitElisionLimit
// allocating lines, on a level that is cold (no access since
// construction, Flush or Reseed): 1 under Random, Ways under FIFO and
// LRU. There, a line's first read leaves it resident and no fill evicts
// it, so each later read is a hit that draws no replacement randomness
// and never reaches the L2; the skipped reads' hits go into the level's
// run counters in bulk. Random and FIFO hits leave no other state. LRU hits
// advance the tick and stamp the line: the run ends with
// cache.Cache.RestoreLRU on each L1 that skipped reads, which sets both to
// what replaying every hit leaves in O(unique lines) (every access of an
// LRU level ticks once, a write-through store miss included, so the
// values are counts the index holds), and victim choices inside the run
// only compare stamps within a set, whose order the skipped hits of other
// sets cannot change. A warm level, a PLRU level, and a stored-to level
// that allocates on write keep every op of their stream: the same loop
// with every bit kept. Results, cache state and the replacement streams
// are bit-identical to replaying every op.
//
// This is the MBPTA campaign hot path: a campaign replays the same
// Compiled hundreds of times (it is immutable and shared across worker
// cores) while only the seeds change.
//
// RunCompiled panics if the compiled line size is not the platform's.
//
//rm:hotpath
func (c *Core) RunCompiled(ct *trace.Compiled) Result {
	if ct.LineBytes != c.lineBytes {
		badLineSize(ct.LineBytes, c.lineBytes)
	}
	c.preparePlans(ct)
	skipI, skipD := c.keepOps(ct)

	il1, dl1, l2 := c.il1, c.dl1, c.l2
	il1.Begin()
	dl1.Begin()
	l2.Begin()
	ilines, dlines := ct.ILines, ct.DLines
	// Reslicing to the line tables' lengths lets one bounds check per
	// access cover both the line and its plan entry.
	il1Plan, l2iPlan := c.plan.il1[:len(ilines)], c.plan.l2i[:len(ilines)]
	dl1Plan, l2dPlan := c.plan.dl1[:len(dlines)], c.plan.l2d[:len(dlines)]
	ops := ct.Ops
	var cycles, h1, hd, stores uint64
	for b, m := range c.plan.keep {
		for ; m != 0; m &= m - 1 {
			op := ops[b<<6|bits.TrailingZeros64(m)]
			id := op.ID
			switch op.Kind {
			case trace.Fetch:
				la, e := ilines[id], il1Plan[id]
				if il1.Hinted(la, e) {
					n := 1 + uint64(op.Rep)
					il1.ReadHit(e, n)
					h1 += n
				} else if l1Slow(il1, &il1Plan[id], la, op.Rep) {
					cycles += l2Hit + memCycles(c.l2Read(la, &l2iPlan[id]))
				}
			case trace.Load:
				la, e := dlines[id], dl1Plan[id]
				if dl1.Hinted(la, e) {
					n := 1 + uint64(op.Rep)
					dl1.ReadHit(e, n)
					hd += n
				} else if l1Slow(dl1, &dl1Plan[id], la, op.Rep) {
					cycles += l2Hit + memCycles(c.l2Read(la, &l2dPlan[id]))
				}
			default:
				stores++
				cycles += memCycles(c.store(dlines[id], &dl1Plan[id], &l2dPlan[id]))
			}
		}
	}
	il1.Hits(h1 + skipI)
	dl1.Hits(hd + skipD)
	if c.plan.limI > 0 {
		r := &ct.Index.Tables().I
		il1.RestoreLRU(ilines, il1Plan, r.Last, r.Accesses)
	}
	if c.plan.limD > 0 {
		r := &ct.Index.Tables().D
		dl1.RestoreLRU(dlines, dl1Plan, r.Last, r.Accesses)
	}
	cycles += l1Hit*uint64(ct.Accesses) + storeBus*stores
	return Result{
		Cycles:   cycles,
		Accesses: ct.Accesses,
		IL1:      il1.End(),
		DL1:      dl1.End(),
		L2:       l2.End(),
	}
}

// l1Slow serves an L1 read whose way hint failed: the level's scan and
// fill, the refreshed hint, then the rep reads folded into the op, which
// hit. It reports whether the read missed the L1.
//
//rm:hotpath
func l1Slow(l1 *cache.Cache, e *uint32, la uint64, rep uint16) bool {
	var b cache.AccessBits
	b, *e = l1.Read(la, *e)
	if rep != 0 {
		l1.ReadHit(*e, uint64(rep))
		l1.Hits(uint64(rep))
	}
	return b&cache.BitHit == 0
}

// l2Read serves an L1 read miss at the L2: a hinted hit, otherwise the
// level's slow path, refreshing the hint.
//
//rm:hotpath
func (c *Core) l2Read(la uint64, e *uint32) cache.AccessBits {
	if c.l2.Hinted(la, *e) {
		c.l2.ReadHit(*e, 1)
		c.l2.Hits(1)
		return cache.BitHit
	}
	var b cache.AccessBits
	b, *e = c.l2.Read(la, *e)
	return b
}

// store serves a store. The L1 is write-through, so it only updates a
// present line, and the L2 sees every store. Hits take the hinted way;
// the slow paths refresh the hints. It returns the L2's access bits.
//
//rm:hotpath
func (c *Core) store(la uint64, e1, e2 *uint32) cache.AccessBits {
	if c.dl1.Hinted(la, *e1) {
		c.dl1.WriteHit(*e1)
		c.dl1.Hits(1)
	} else {
		_, *e1 = c.dl1.Write(la, *e1)
	}
	if c.l2.Hinted(la, *e2) {
		c.l2.WriteHit(*e2)
		c.l2.Hits(1)
		return cache.BitHit
	}
	var b cache.AccessBits
	b, *e2 = c.l2.Write(la, *e2)
	return b
}

// memCycles returns the memory-side cycles of an L2 access: a line
// filled from memory, a dirty victim written back.
func memCycles(b cache.AccessBits) uint64 {
	var cycles uint64
	if b&cache.BitFilled != 0 {
		cycles += memLatency
	}
	if b&cache.BitWriteback != 0 {
		cycles += writeback
	}
	return cycles
}

// badLineSize is the replay loops' cold panic helper: formatting stays off
// the annotated hot path so the escape-analysis gate
// (scripts/check-noalloc.sh) sees no heap traffic in its span. noinline
// keeps the compiler from folding the Sprintf escape back into the
// caller's span.
//
//go:noinline
func badLineSize(got, want int) {
	panic(fmt.Sprintf("sim: compiled line size %dB does not match the platform's %dB lines", got, want))
}
