package sim

import (
	"fmt"
	"math"
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
// lines): it counts the allocating lines k each L1 set receives under
// this run's mapping and, beside the trace's must-replay ops, keeps the
// later reads of a set's lines by the level's cache.HitElisionLimit
// (1 under Random, Ways under FIFO and LRU, on a cold level; 0, keeping
// the whole stream, on a warm or PLRU level and on a stored-to
// write-back one). A set with k at most the limit skips every later
// read; a set with k above Ways keeps every one; a set in between (only
// Random's 2..Ways) settles during the run, and the loop marks its reads
// as it goes from the level's settle scratch, sI or sD. A run whose
// levels allow it then drops the stores its L2 must hit from keep (see
// storeSkip). occ is the passes' per-set counter scratch, all zero
// between runs; limI and limD remember the run's L1 limits for the LRU
// restores after the loop, and ops and stores count the ops and the
// stores the loop replayed.
type indexPlan struct {
	il1 []uint32 // IL1 entry per instruction line ID
	dl1 []uint32 // DL1 entry per data line ID
	l2i []uint32 // L2 entry per instruction line ID
	l2d []uint32 // L2 entry per data line ID

	keep   []uint64  // per 64-op block: the ops this run replays
	occ    []uint32  // per L1 or L2 set: lines this run (keepOps)
	limI   int       // this run's IL1 hit elision limit
	limD   int       // this run's DL1 hit elision limit
	sI, sD settle    // IL1 and DL1 settled-set scratch
	sk     storeSkip // skipped-store scratch

	ops, stores int // replayed by the last RunCompiled

	builtFor *trace.Compiled
}

// settle is one L1's scratch for settled-set elision in a run. A set of a
// cold level whose mapping gives it k allocating lines, more than the
// level's elision limit but no more than Ways, holds all k once k of its
// read-miss fills have evicted nothing (each such fill adds a line, and
// no other fill reaches the set); from then on it cannot miss, so the
// later reads of its lines are certain hits. Until a set settles, the
// replay marks its lines' later reads in keep one segment (segOps ops)
// ahead of the loop; the settle clears the marked ones past the current
// op.
//
// need, beg and end are per L1 set, need all zero between runs. A
// settling set's lines with later reads are the entries beg to end of
// lo, cur and hi, which are sized per line ID of the stream: each
// entry's later reads are at[lo:hi] (trace.LineReads.At), and the first
// not yet marked is at[cur]. All of it lives on the Core and is reused
// across runs.
type settle struct {
	at          []uint32
	need        []uint32 // fills that evict nothing still due before the set settles; 0 if it is not settling
	beg, end    []uint32
	lo, cur, hi []uint32
	active      []uint32 // the settling sets, active[:n]
	n           int
}

// segOps is the span of ops the replay marks settling sets' reads for at
// a time: 256 keep blocks.
const segOps = 1 << 14

func newSettle(sets int) settle {
	return settle{
		need: make([]uint32, sets), beg: make([]uint32, sets), end: make([]uint32, sets),
		active: make([]uint32, sets),
	}
}

// size readies the per-line scratch for a stream of n line IDs.
func (st *settle) size(n int) {
	st.lo, st.cur, st.hi = planSlot(st.lo, n), planSlot(st.cur, n), planSlot(st.hi, n)
}

func planSlot[T uint32 | uint64 | bool](buf []T, n int) []T {
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
		c.plan.sI.size(len(ct.ILines))
		c.plan.sD.size(len(ct.DLines))
		c.plan.sk.alone = planSlot(c.plan.sk.alone, len(ct.DLines))
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

// keepOps fills the plan's keep mask for this run of ct, up to the
// settling sets' reads, which the loop marks as it goes, and readies
// their scratch and that of the stores it skips. It must run after
// preparePlans and before the run's first access, while the levels'
// cold state still describes the run's start. A run in which neither L1
// may skip reads, or of a Compiled without an Index, keeps every op
// without building the index's tables.
//
//rm:hotpath
func (c *Core) keepOps(ct *trace.Compiled) {
	keep := c.plan.keep
	c.plan.sk.n = 0
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
		return
	}
	t := ct.Index.Tables()
	copy(keep, t.Must)
	elide(keep, &t.I, c.plan.il1, c.plan.occ, limI, c.il1.Config().Ways, &c.plan.sI)
	elide(keep, &t.D, c.plan.dl1, c.plan.occ, limD, c.dl1.Config().Ways, &c.plan.sD)
	// A skipped store's DL1 access must change no state: limD > 0 means
	// a cold write-through DL1, on which only an LRU store miss ticks.
	if limD > 0 && c.dl1.Config().Replacement != cache.LRU && c.l2.SoleLineStoresHit() {
		c.plan.sk.plan(keep, t.Stores(), c.plan.l2i, c.plan.l2d, c.plan.occ)
	}
}

// elide adds to keep the later reads of one stream that its L1 may miss
// in this run, but for those of settling sets, which it records in st.
// A line allocates when the stream reads it (the levels that elide take
// no fill from a store); a set holding at most limit allocating lines
// skips every later read of its lines, one holding more than ways keeps
// them all, and one in between settles (see settle). Limit 0 keeps the
// whole stream. occ must be zero on entry and is on return.
//
//rm:hotpath
func elide(keep []uint64, r *trace.LineReads, plan []uint32, occ []uint32, limit, ways int, st *settle) {
	if limit == 0 {
		for b, m := range r.All {
			keep[b] |= m
		}
		return
	}
	plan = plan[:len(r.Read)]
	for id, read := range r.Read {
		if read {
			occ[plan[id]&cache.SetMask]++
		}
	}
	for id, e := range plan {
		s := e & cache.SetMask
		switch k := occ[s]; {
		case k <= uint32(limit):
		case k > uint32(ways):
			for _, i := range r.At[r.Off[id]:r.Off[id+1]] {
				keep[i>>6] |= 1 << (i & 63)
			}
		case st.need[s] == 0: // the set's first line: it starts settling
			st.need[s] = k
			st.active[st.n] = s
			st.n++
		}
	}
	if st.n > 0 {
		st.group(r, plan)
	}
	for _, e := range plan {
		occ[e&cache.SetMask] = 0
	}
}

// group lays out the settling sets' lines that have later reads, each
// set's together, with their cursors at their first later read.
//
//rm:hotpath
func (st *settle) group(r *trace.LineReads, plan []uint32) {
	var pos uint32
	for _, s := range st.active[:st.n] {
		st.beg[s], st.end[s] = pos, pos
		pos += st.need[s]
	}
	for id, e := range plan {
		s := e & cache.SetMask
		if lo, hi := r.Off[id], r.Off[id+1]; st.need[s] != 0 && lo < hi {
			j := st.end[s]
			st.lo[j], st.cur[j], st.hi[j] = uint32(lo), uint32(lo), uint32(hi)
			st.end[s] = j + 1
		}
	}
	st.at = r.At
}

// mark adds to keep the later reads below op lim of the lines of every
// set still settling, and drops the settled sets from the active list.
//
//rm:hotpath
func (st *settle) mark(keep []uint64, lim uint32) {
	at, cur, hi := st.at, st.cur, st.hi
	n := 0
	for _, s := range st.active[:st.n] {
		if st.need[s] == 0 {
			continue
		}
		st.active[n] = s
		n++
		for j := st.beg[s]; j < st.end[s]; j++ {
			c := cur[j]
			for _, a := range at[c:hi[j]] {
				if a >= lim {
					break
				}
				keep[a>>6] |= 1 << (a & 63)
				c++
			}
			cur[j] = c
		}
	}
	st.n = n
}

// fill counts a read-miss fill at op i into set that evicted nothing.
// On the fill that settles the set it clears the later reads of the
// set's lines that mark marked past op i and reports true. The replay
// loop calls it only on such a miss while some set is settling, so it
// stays out of the loop's body.
//
//rm:hotpath
//go:noinline
func (st *settle) fill(keep []uint64, set uint32, i int) bool {
	if st.need[set] == 0 {
		return false
	}
	if st.need[set]--; st.need[set] != 0 {
		return false
	}
	at := st.at
	for j := st.beg[set]; j < st.end[set]; j++ {
		marked := at[st.lo[j]:st.cur[j]]
		for k := len(marked) - 1; k >= 0 && int(marked[k]) > i; k-- {
			keep[marked[k]>>6] &^= 1 << (marked[k] & 63)
		}
	}
	return true
}

// done ends a run's settling: the sets that never settled stop, so need
// is all zero again.
//
//rm:hotpath
func (st *settle) done() {
	for _, s := range st.active[:st.n] {
		st.need[s] = 0
	}
	st.n = 0
}

// storeSkip is the scratch of store elision in a run. On a cold
// write-back Random L2 (cache.Cache.SoleLineStoresHit), a data line that
// is alone in its L2 set under the run's mapping, counting every line ID
// of both streams so that a line numbered twice is never alone, is
// filled by its first data access and never evicted. Each of its later
// stores (trace.ReplayTables.Stores) is an L2 hit that only sets the
// line's dirty bit, so keepOps drops them from keep and the run adds
// their L2 hits and dirty bits at its end (skipped).
//
// A skipped store's DL1 access is left to count. The DL1 is cold,
// write-through and Random or FIFO, so the store changes no DL1 state,
// and it hits exactly while its line is resident, from the read fill
// that installs the line to the fill that evicts it. While live, the
// loop reports each DL1 read fill (fill); who and from record per DL1
// way (set*ways+way) the tracked line the last fill installed, as 1 +
// its ID (0 for any other line), and the op of that fill. A fill that
// evicts a tracked line counts the line's skipped stores inside its
// residency as hits. After the op of the run's last skipped store
// (last) no fill can change an outcome: stop counts each open
// residency's stores from its fill on and ends the tracking.
//
// alone marks per data line ID the lines whose stores the run skips, n
// counts those stores and hits their DL1 hits so far. who is all zero
// between runs.
type storeSkip struct {
	stores    *trace.LineOps // the later stores of the run's Compiled
	alone     []bool
	who, from []uint32
	ways      int
	last      uint32
	n, hits   uint64
	live      bool
}

func newStoreSkip(dl1 cache.Config) storeSkip {
	n := dl1.Sets() * dl1.Ways
	return storeSkip{who: make([]uint32, n), from: make([]uint32, n), ways: dl1.Ways}
}

// plan drops from keep the later stores of the data lines alone in
// their L2 set under this run's plans, l2i and l2d, and readies the
// run's tracking of them. occ must be zero on entry and is on return.
//
//rm:hotpath
func (sk *storeSkip) plan(keep []uint64, s *trace.LineOps, l2i, l2d, occ []uint32) {
	for _, e := range l2i {
		occ[e&cache.SetMask]++
	}
	for _, e := range l2d {
		occ[e&cache.SetMask]++
	}
	sk.stores, sk.last, sk.hits = s, 0, 0
	for id, e := range l2d {
		at := s.At[s.Off[id]:s.Off[id+1]]
		on := len(at) > 0 && occ[e&cache.SetMask] == 1
		sk.alone[id] = on
		if !on {
			continue
		}
		for _, i := range at {
			keep[i>>6] &^= 1 << (i & 63)
		}
		sk.n += uint64(len(at))
		sk.last = max(sk.last, at[len(at)-1])
	}
	for _, e := range l2i {
		occ[e&cache.SetMask] = 0
	}
	for _, e := range l2d {
		occ[e&cache.SetMask] = 0
	}
	sk.live = sk.n > 0
}

// fill notes a DL1 read fill at op i of data line id into the way of
// plan entry e. The loop calls it only while the tracking is live, so
// it stays out of the loop's body.
//
//rm:hotpath
//go:noinline
func (sk *storeSkip) fill(e, id uint32, i int) {
	if i > int(sk.last) {
		sk.stop()
		return
	}
	w := int(e&cache.SetMask)*sk.ways + int(e>>cache.SetBits)
	if who := sk.who[w]; who != 0 {
		sk.hits += sk.count(who-1, sk.from[w], uint32(i))
	}
	sk.who[w], sk.from[w] = 0, uint32(i)
	if sk.alone[id] {
		sk.who[w] = id + 1
	}
}

// stop ends the tracking: each tracked line still resident hits with
// every skipped store from its fill on.
//
//rm:hotpath
func (sk *storeSkip) stop() {
	for w, who := range sk.who {
		if who != 0 {
			sk.hits += sk.count(who-1, sk.from[w], math.MaxUint32)
			sk.who[w] = 0
		}
	}
	sk.live = false
}

// count returns the number of line id's skipped stores between ops a
// and b.
//
//rm:hotpath
func (sk *storeSkip) count(id, a, b uint32) uint64 {
	at := sk.stores.At[sk.stores.Off[id]:sk.stores.Off[id+1]]
	return uint64(below(at, b) - below(at, a))
}

// below returns the number of entries of the ascending at below x.
//
//rm:hotpath
func below(at []uint32, x uint32) int {
	lo, hi := 0, len(at)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if at[m] < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// skipped accounts for the run's skipped stores at its end and returns
// their number: the DL1 misses among them (the caller's HitsUpTo counts
// the hits), an L2 hit each, and the dirty bit of each line stored to.
// l2d is the run's L2 plan of the data lines, whose way hints hold the
// lines, which never left.
//
//rm:hotpath
func (c *Core) skipped(l2d []uint32) uint64 {
	sk := &c.plan.sk
	if sk.live {
		sk.stop()
	}
	c.dl1.Misses(sk.n - sk.hits)
	c.l2.Hits(sk.n)
	for id, on := range sk.alone {
		if on {
			c.l2.WriteHit(l2d[id])
		}
	}
	return sk.n
}

// ReplayedOps returns the number of ops the last RunCompiled replayed;
// it skipped the rest as certain L1 hits and as stores certain to hit
// the L2.
func (c *Core) ReplayedOps() int { return c.plan.ops }

// ReplayedStores returns the number of stores among the ops the last
// RunCompiled replayed.
func (c *Core) ReplayedStores() int { return c.plan.stores }

// RunCompiled executes a compiled trace to completion and returns its
// cycle count and per-level statistics for this run only. Cache contents
// persist across calls; callers fix the run's mapping first (Reseed, or
// Flush for a seedless baseline), matching the paper's run-to-completion
// analysis unit. RunCompiled then refreshes the index plans (skipping
// seed-invariant deterministic placements, see preparePlans) and replays
// the ops through the three cache levels. Placement hashing is hoisted
// out of the loop into array lookups, and an L1 or L2 hit costs one tag
// compare in the way the plan entry hints plus the level's inlined hit
// update; only misses and way mispredictions call the level's slow path.
// The reads an op folds (trace.Op.Rep) ride along with it, so guaranteed
// hits cost nothing per access. Hits the slow paths do not count go into
// the level's counters once per run, and the L1Hit and StoreBus charges
// every access pays are added once per run.
//
// RunCompiled replays only the ops whose outcome this run's mapping
// leaves uncertain: each line ID's first read, the later reads of a line
// until its L1 set can no longer miss, and the stores but those certain
// to hit the L2 (the trace's ReplayIndex and keepOps). Skipping reads
// needs an L1 that is cold (no access since construction, Flush or
// Reseed) and that no store fills. With k allocating lines in a set
// under this run's mapping:
//
//   - k at most cache.HitElisionLimit (1 under Random, Ways under FIFO
//     and LRU): a line's first read leaves it resident and no fill
//     evicts it, so every later read is skipped from the start.
//   - k up to Ways under Random: only a read miss fills the set, and a
//     fill that evicts nothing adds a line, so once k such fills have
//     happened the set holds all k lines and keeps them. The loop counts
//     those fills; at the k-th the set has settled, and it drops the
//     rest of its lines' reads from the ops it replays (see settle).
//   - more than Ways: every later read is replayed.
//
// A skipped read is a hit that draws no replacement randomness and
// never reaches the L2. Random and FIFO hits leave no other state. LRU
// hits advance the tick and stamp the line: the run ends with
// cache.Cache.RestoreLRU on each L1 that skipped reads, which sets both
// to what replaying every hit leaves in O(unique lines) (every access of
// an LRU level ticks once, a write-through store miss included, so the
// values are counts the index holds), and victim choices inside the run
// only compare stamps within a set, whose order the skipped hits of
// other sets cannot change. A warm level, a PLRU level, and a stored-to
// level that allocates on write keep every op of their stream: the same
// loop with every bit kept.
//
// A store is skipped when its L2 outcome is a certain, stateless hit
// (see storeSkip): the L2 is cold, Random and write-back, the store's
// data line is alone in its L2 set under this run's mapping, counting
// the line IDs of both streams, and the store follows the line's first
// data access, which filled it. The DL1 must be cold, write-through and
// Random or FIFO, so the skipped store's DL1 access changes no state;
// the loop counts whether it hit from the residency of its line, which
// only read fills change. The run's end adds the skipped stores' DL1
// misses, their L2 hits and store-bus cycles, and sets their lines' L2
// dirty bits. LRU, PLRU and write-through L2s, LRU DL1s and warm levels
// keep every store. Results, cache state and the replacement streams are
// bit-identical to replaying every op.
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
	c.keepOps(ct)

	il1, dl1, l2 := c.il1, c.dl1, c.l2
	il1.Begin()
	dl1.Begin()
	l2.Begin()
	ilines, dlines := ct.ILines, ct.DLines
	// Reslicing to the line tables' lengths lets one bounds check per
	// access cover both the line and its plan entry.
	il1Plan, l2iPlan := c.plan.il1[:len(ilines)], c.plan.l2i[:len(ilines)]
	dl1Plan, l2dPlan := c.plan.dl1[:len(dlines)], c.plan.l2d[:len(dlines)]
	ops, keep := ct.Ops, c.plan.keep
	sI, sD, sk := &c.plan.sI, &c.plan.sD, &c.plan.sk
	var cycles, h1, hd, stores uint64
	replayed := 0
	for seg := 0; seg < len(keep); seg += segOps >> 6 {
		end := min(seg+segOps>>6, len(keep))
		lim := uint32(min(end<<6, len(ops))) // an index holds at most MaxUint32 ops
		if sI.n > 0 {
			sI.mark(keep, lim)
		}
		if sD.n > 0 {
			sD.mark(keep, lim)
		}
		for b := seg; b < end; b++ {
			for m := keep[b]; m != 0; m &= m - 1 {
				replayed++
				i := b<<6 | bits.TrailingZeros64(m)
				op := ops[i]
				id := op.ID
				switch op.Kind {
				case trace.Fetch:
					la, e := ilines[id], il1Plan[id]
					if il1.Hinted(la, e) {
						n := 1 + uint64(op.Rep)
						il1.ReadHit(e, n)
						h1 += n
						continue
					}
					r := l1Slow(il1, &il1Plan[id], la, op.Rep)
					if r&cache.BitHit != 0 {
						continue
					}
					cycles += l2Hit + memCycles(c.l2Read(la, &l2iPlan[id]))
					if r&cache.BitEvicted == 0 && sI.n > 0 && sI.fill(keep, e&cache.SetMask, i) {
						m &= keep[b]
					}
				case trace.Load:
					la, e := dlines[id], dl1Plan[id]
					if dl1.Hinted(la, e) {
						n := 1 + uint64(op.Rep)
						dl1.ReadHit(e, n)
						hd += n
						continue
					}
					r := l1Slow(dl1, &dl1Plan[id], la, op.Rep)
					if r&cache.BitHit != 0 {
						continue
					}
					if sk.live {
						sk.fill(dl1Plan[id], id, i)
					}
					cycles += l2Hit + memCycles(c.l2Read(la, &l2dPlan[id]))
					if r&cache.BitEvicted == 0 && sD.n > 0 && sD.fill(keep, e&cache.SetMask, i) {
						m &= keep[b]
					}
				default:
					stores++
					cycles += memCycles(c.store(dlines[id], &dl1Plan[id], &l2dPlan[id]))
				}
			}
		}
	}
	sI.done()
	sD.done()
	c.plan.ops, c.plan.stores = replayed, int(stores)
	if sk.n > 0 {
		stores += c.skipped(l2dPlan)
	}
	if c.plan.limI == 0 && c.plan.limD == 0 {
		il1.Hits(h1)
		dl1.Hits(hd)
	} else {
		// Every access the levels have not counted is a hit: the
		// hinted ones and the skipped reads.
		t := ct.Index.Tables()
		il1.HitsUpTo(t.I.Accesses)
		dl1.HitsUpTo(t.D.Accesses)
		if c.plan.limI > 0 {
			il1.RestoreLRU(ilines, il1Plan, t.I.Last, t.I.Accesses)
		}
		if c.plan.limD > 0 {
			dl1.RestoreLRU(dlines, dl1Plan, t.D.Last, t.D.Accesses)
		}
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
// hit. It returns the read's access bits.
//
//rm:hotpath
func l1Slow(l1 *cache.Cache, e *uint32, la uint64, rep uint16) cache.AccessBits {
	var b cache.AccessBits
	b, *e = l1.Read(la, *e)
	if rep != 0 {
		l1.ReadHit(*e, uint64(rep))
		l1.Hits(uint64(rep))
	}
	return b
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
// (TestNoHeapEscapeInHotpath in internal/lint) sees no heap traffic in
// its span. noinline
// keeps the compiler from folding the Sprintf escape back into the
// caller's span.
//
//go:noinline
func badLineSize(got, want int) {
	panic(fmt.Sprintf("sim: compiled line size %dB does not match the platform's %dB lines", got, want))
}
