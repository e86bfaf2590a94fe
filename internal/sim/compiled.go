package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

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
// (trace.ReplayTables layout), which keepOps rebuilds every run (see it,
// missRule, lruPass and storeSkip) and the loop extends as fills evict
// lines. occ is elide's per-set counter scratch, all zero outside
// keepOps. limI and limD remember the run's L1 limits for the hit counts
// and LRU restores after the loop, and ops and stores count the ops and
// the stores the loop replayed.
type indexPlan struct {
	il1 []uint32 // IL1 entry per instruction line ID
	dl1 []uint32 // DL1 entry per data line ID
	l2i []uint32 // L2 entry per instruction line ID
	l2d []uint32 // L2 entry per data line ID

	keep   []uint64  // per 64-op block: the ops this run replays
	occ    []uint32  // per L1 set: lines this run (elide)
	limI   int       // this run's IL1 hit elision limit
	limD   int       // this run's DL1 hit elision limit
	rI, rD missRule  // IL1 and DL1 miss-rule scratch
	lp     lruPass   // DL1 LRU classification scratch
	sk     storeSkip // skipped-store scratch

	ops, stores int // replayed by the last RunCompiled

	builtFor *trace.Compiled
}

// missRule is one L1's scratch for the miss rule in a run. The rule
// applies on a cold L1 whose hits change no state (Random or FIFO) and
// that no store fills. Such a level changes state only on a read miss,
// and a read of a line misses exactly when it is the line's first read in
// the run or a fill has evicted the line since its previous read: the
// line's own read miss is the only fill that brings it back. So keepOps keeps none
// of the stream's later reads, every read the loop replays is a certain
// miss, which it serves with cache.Cache.Fill, and a fill that evicts a
// line marks the line's next read in keep (fill).
//
// who holds per way (set*ways+way) the line the way holds, and is all
// zero between runs; New allocates it for a Random or FIFO level. cur
// holds per line ID the index in at of the first of the line's later
// reads not yet passed; preparePlans sizes it per Compiled and start
// resets it.
//
// No store reaches a DL1 that takes the rule. The DL1 is cold,
// write-through and Random or FIFO, so a store changes no DL1 state, and
// it misses exactly while its line is not resident: before the line's
// first read, and from each eviction of the line to its next read
// (trace.LineStores). misses starts at the stores before their line's
// first read, and a fill that evicts a line adds the line's stores
// between the eviction and its next read, or the run's end; stores is
// the data stream's store lists (nil on the IL1).
type missRule struct {
	at   []uint32 // the stream's trace.LineReads At
	off  []int    // and Off
	cur  []uint32 // per line ID
	who  []resident
	ways int
	on   bool // the run applies the rule

	stores *trace.LineStores
	misses uint64
}

// resident is the line a miss-rule way holds: 1 + its ID, or 0 for an
// empty way, and the index in at and the op of the line's first later
// read after the read that filled it (math.MaxUint32 for none). A line
// hit while resident only if that op comes before the fill that evicts
// it.
type resident struct {
	id, next, at uint32
}

// newMissRule returns the miss-rule scratch of level c: none unless its
// hits change no state.
func newMissRule(c *cache.Cache) missRule {
	if !c.StatelessHits() {
		return missRule{}
	}
	cfg := c.Config()
	return missRule{who: make([]resident, cfg.Sets()*cfg.Ways), ways: cfg.Ways}
}

// start readies the rule for a run over the stream lr, whose stores are
// s (nil for none): every line's cursor at its first later read, and the
// stores' misses at those before their lines' first reads.
//
//rm:hotpath
func (r *missRule) start(lr *trace.LineReads, s *trace.LineStores) {
	r.at, r.off, r.stores, r.misses = lr.At, lr.Off, s, 0
	if s != nil {
		r.misses = s.Cold
	}
	for id := range r.cur {
		r.cur[id] = uint32(r.off[id])
	}
}

// fill notes a read-miss fill at op i of line id into the way of plan
// entry e. If it evicted a line, the line's next read is marked in keep,
// and fill reports whether that read is in op i's block, which the loop
// is walking. The loop calls it on each of the level's misses, so it
// stays out of the loop's body.
//
//rm:hotpath
//go:noinline
func (r *missRule) fill(keep []uint64, e, id uint32, i int) bool {
	w := int(e&cache.SetMask)*r.ways + int(e>>cache.SetBits)
	old := r.who[w]
	n, at := r.cur[id], uint32(math.MaxUint32)
	if n < uint32(r.off[id+1]) {
		at = r.at[n]
	}
	r.who[w] = resident{id + 1, n, at}
	if old.id == 0 {
		return false
	}
	// A line never hit while resident has its next read marked straight
	// away; one that was hit passes the reads it hit, each a compare,
	// where replaying them would serve them.
	j, a := old.next, old.at
	if a < uint32(i) {
		hi := uint32(r.off[old.id])
		for j++; j < hi && r.at[j] < uint32(i); j++ {
		}
		a = math.MaxUint32
		if j < hi {
			a = r.at[j]
		}
	}
	if r.stores != nil && uint32(i) < r.stores.Last {
		r.misses += r.window(old.id-1, j, uint32(i))
	}
	if a == math.MaxUint32 {
		return false
	}
	keep[a>>6] |= 1 << (a & 63)
	r.cur[old.id-1] = j + 1
	return int(a>>6) == i>>6
}

// window returns the number of line id's stores after its eviction at op
// i and before its next read, the j-th entry of at or none, all of which
// miss. They lie between two consecutive reads of the line.
//
//rm:hotpath
func (r *missRule) window(id, j, i uint32) uint64 {
	s := r.stores
	lo, hi := uint32(s.Off[id]), uint32(s.Off[id+1])
	if lo == hi {
		return 0
	}
	lo = s.First[id]
	if j > uint32(r.off[id]) {
		lo = s.After[j-1]
	}
	if j < uint32(r.off[id+1]) {
		hi = s.After[j]
	}
	for lo < hi && s.At[lo] < i {
		lo++
	}
	return uint64(hi - lo)
}

// done ends the rule's run: it returns the stores' DL1 misses the rule
// counted and empties who.
//
//rm:hotpath
func (r *missRule) done() uint64 {
	clear(r.who)
	return r.misses
}

// lruPass is the DL1 scratch of the LRU classification in a run. It
// applies on a cold write-through LRU DL1, which skips reads by occupancy
// (elide). Such a DL1 set changes state only through its own lines'
// accesses, so one pass decides every DL1 access of the run exactly, as
// LRU does: a read hits iff fewer than Ways other lines of its set were
// filled or hit since its line's last touch, a store hits iff its line is
// resident, and only a hit restamps the line (classify). In a set of at
// most Ways read lines only each line's first read misses, and the pass
// visits those reads alone; in a set of more (an over-full set, whose
// later reads elide cannot skip) it visits every read and each store
// after its line's first read. The loop then does no DL1 work: it skips
// the hits, serves the misses at the L2 alone, and skips an over-full
// line's miss whose L2 hit is certain (settle). No store reaches the DL1:
// a store misses exactly when its line is not resident, before the
// line's first read (trace.LineStores.Cold) or, in an over-full set,
// after an eviction, which the pass counts. At the run's end finish
// installs the lines the pass left in the DL1's ways and their way hints,
// so that cache.Cache.RestoreLRU stamps them.
//
// stamp and who hold, per DL1 way (set*ways+way), the pass's tick at the
// last touch of the way's line (0 for a free way) and 1 + the line's ID
// (0 for none); res, per data line ID, 1 + the way holding the line, or
// 0. walk and hit hold one bit per op: the ops the pass visits, and the
// read misses whose L2 hit the loop skips. All are zero between runs,
// and allocated on the first run the pass applies to.
type lruPass struct {
	on        bool
	ways      int
	stamp     []uint64
	who, res  []uint32
	walk, hit []uint64
	cold      uint64 // the stores' DL1 misses before their lines' first reads
	misses    uint64 // the pass's DL1 misses
	evictions uint64 // and evictions
	served    uint64 // the read misses whose L2 hit the loop skips
}

// size readies the pass's scratch for ct on the DL1 dl1; noinline keeps
// its allocations out of keepOps' hot-path span.
//
//go:noinline
func (lp *lruPass) size(dl1 cache.Config, ct *trace.Compiled) {
	if lp.stamp == nil {
		n := dl1.Sets() * dl1.Ways
		lp.stamp, lp.who, lp.ways = make([]uint64, n), make([]uint32, n), dl1.Ways
	}
	if len(lp.res) < len(ct.DLines) {
		lp.res = make([]uint32, len(ct.DLines))
	}
	nb := trace.Blocks(len(ct.Ops))
	if len(lp.walk) < nb {
		lp.walk, lp.hit = make([]uint64, nb), make([]uint64, nb)
	}
}

// classify runs the pass over a run of ct, whose over-full sets' later
// reads elide has marked in walk: it marks every read line's first read
// and each over-full line's stores after it, replays those ops in op
// order on the DL1's ways, as LRU fills and stamps them, collecting the
// reads that miss in hit, then settles the misses (settle). p holds the
// run's plans and p.occ the DL1's read lines per set; sets and l2Lim
// certify L2 sets for settle.
//
//rm:hotpath
func (lp *lruPass) classify(keep []uint64, ct *trace.Compiled, t *trace.ReplayTables, p *indexPlan, sets []uint32, l2Lim int) {
	d, s := &t.D, &t.Stores
	dl1 := p.dl1[:len(ct.DLines)]
	occ, ways, walk, hit := p.occ, lp.ways, lp.walk, lp.hit
	for id, e := range dl1 {
		if !d.Read[id] {
			continue
		}
		h := d.Head[id]
		walk[h>>6] |= 1 << (h & 63)
		if occ[e&cache.SetMask] <= uint32(ways) {
			continue // its later reads and stores hit
		}
		for _, a := range s.At[s.Off[id]:s.Off[id+1]] {
			if a > h {
				walk[a>>6] |= 1 << (a & 63)
			}
		}
	}
	ops, stamp, who, res := ct.Ops, lp.stamp, lp.who, lp.res[:len(dl1)]
	var reads, stores, evictions uint64 // misses and evictions
	tick := uint64(0)
	for b, m := range walk {
		if m == 0 {
			continue
		}
		walk[b] = 0
		var missed uint64 // the block's reads that miss
		for ; m != 0; m &= m - 1 {
			i := b<<6 | bits.TrailingZeros64(m)
			op := ops[i]
			tick++
			if r := res[op.ID]; r != 0 { // a hit: the line is touched
				stamp[r-1] = tick
				continue
			}
			if op.Kind == trace.Store {
				stores++
				continue
			}
			missed |= 1 << (i & 63)
			base := int(dl1[op.ID]&cache.SetMask) * ways
			st := stamp[base : base+ways : base+ways]
			v, oldest := 0, st[0] // a free way first: stamp 0, in way order
			for w := 1; w < len(st); w++ {
				if x := st[w]; x < oldest {
					v, oldest = w, x
				}
			}
			if old := who[base+v]; old != 0 {
				res[old-1] = 0
				evictions++
			}
			who[base+v], res[op.ID], st[v] = op.ID+1, uint32(base+v)+1, tick
		}
		hit[b] = missed
		reads += uint64(bits.OnesCount64(missed))
	}
	lp.cold, lp.misses, lp.evictions = s.Cold, reads+stores, evictions
	lp.served = reads - lp.settle(keep, ct, t, p, sets, l2Lim)
}

// settle decides, per read line, which of its read misses, all in hit,
// the loop replays, at the L2 alone. A line of a set that is not
// over-full misses at its first read alone, which stays kept from Must.
// An over-full line keeps them all where sets leaves its L2 set uncertain
// (more than l2Lim lines; a nil sets certifies none). Otherwise the line
// stays resident in the L2 from its first L2 access on, so the rest hit
// there: it keeps only the first L2 access, if a read miss (no store
// precedes the line's first read), and the last, if a read miss (no store
// follows the line's last miss), which leaves the line's final stamp. The
// other misses stay in hit, whose L2 hits the loop skips. settle returns
// the number of misses it kept.
//
//rm:hotpath
func (lp *lruPass) settle(keep []uint64, ct *trace.Compiled, t *trace.ReplayTables, p *indexPlan, sets []uint32, l2Lim int) uint64 {
	d, s := &t.D, &t.Stores
	dl1, l2d := p.dl1[:len(ct.DLines)], p.l2d[:len(ct.DLines)]
	occ, ways, hit := p.occ, uint32(lp.ways), lp.hit
	var kept uint64
	for id, e := range dl1 {
		if !d.Read[id] {
			continue
		}
		h := d.Head[id]
		if occ[e&cache.SetMask] <= ways {
			hit[h>>6] &^= 1 << (h & 63) // the line's one miss, kept from Must
			kept++
			continue
		}
		at := d.At[d.Off[id]:d.Off[id+1]]
		if sets == nil || sets[l2d[id]&cache.SetMask] > uint32(l2Lim) {
			for _, r := range at {
				if hit[r>>6]>>(r&63)&1 != 0 {
					hit[r>>6] &^= 1 << (r & 63)
					keep[r>>6] |= 1 << (r & 63)
					kept++
				}
			}
			hit[h>>6] &^= 1 << (h & 63) // the first read, kept from Must
			kept++
			continue
		}
		lo, hi := s.Off[id], s.Off[id+1]
		if lo < hi && s.At[lo] < h { // the first read is no first L2 access
			keep[h>>6] &^= 1 << (h & 63)
		} else {
			hit[h>>6] &^= 1 << (h & 63)
			kept++
		}
		last := h
		for j := len(at) - 1; j >= 0; j-- {
			if r := at[j]; hit[r>>6]>>(r&63)&1 != 0 {
				last = r
				break
			}
		}
		if (lo == hi || s.At[hi-1] < last) && hit[last>>6]>>(last&63)&1 != 0 {
			hit[last>>6] &^= 1 << (last & 63)
			keep[last>>6] |= 1 << (last & 63)
			kept++
		}
	}
	return kept
}

// finish ends the pass's run on dl1 and l2: it installs the lines the
// pass left in the DL1's ways in dl1 and their way hints in plan (per
// data line ID, addresses lines), counts the DL1 misses (the cold stores'
// and the pass's) and evictions and the skipped misses' L2 hits, and
// empties the scratch.
//
//rm:hotpath
func (lp *lruPass) finish(dl1, l2 *cache.Cache, lines []uint64, plan []uint32, blocks int) {
	for g, who := range lp.who {
		if who == 0 {
			continue
		}
		id := who - 1
		e := uint32(g/lp.ways) | uint32(g%lp.ways)<<cache.SetBits
		dl1.Install(lines[id], e)
		plan[id] = e
		lp.res[id], lp.who[g], lp.stamp[g] = 0, 0, 0
	}
	dl1.Misses(lp.cold + lp.misses)
	dl1.Evicted(lp.evictions)
	l2.Hits(lp.served)
	clear(lp.hit[:blocks])
	lp.misses, lp.evictions, lp.served = 0, 0, 0
}

func planSlot[T uint32 | uint64 | bool](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// preparePlans refreshes the per-level index plans for ct. A new Compiled
// (or a first run) sizes and builds everything, the miss rule's cursors
// included; on repeat replays of the same Compiled only the levels whose
// placement policy actually re-randomizes per seed are rebuilt.
func (c *Core) preparePlans(ct *trace.Compiled) {
	fresh := c.plan.builtFor != ct
	if fresh {
		c.plan.il1 = planSlot(c.plan.il1, len(ct.ILines))
		c.plan.dl1 = planSlot(c.plan.dl1, len(ct.DLines))
		c.plan.l2i = planSlot(c.plan.l2i, len(ct.ILines))
		c.plan.l2d = planSlot(c.plan.l2d, len(ct.DLines))
		c.plan.keep = planSlot(c.plan.keep, trace.Blocks(len(ct.Ops)))
		if c.plan.rI.who != nil {
			c.plan.rI.cur = planSlot(c.plan.rI.cur, len(ct.ILines))
		}
		if c.plan.rD.who != nil {
			c.plan.rD.cur = planSlot(c.plan.rD.cur, len(ct.DLines))
		}
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

// keepOps fills the plan's keep mask for this run of ct, up to the reads
// of evicted lines and the stores of lines that leave the L2, which the
// loop marks as it goes, and readies the scratch of both. On a DL1 the
// LRU pass classifies, the pass runs here, whole. keepOps must run after
// preparePlans and before the run's first access, while the levels' cold
// state still describes the run's start. A run in which neither L1 may
// skip reads, or of a Compiled without an Index, keeps every op without
// reading the tables.
//
//rm:hotpath
func (c *Core) keepOps(ct *trace.Compiled) {
	keep := c.plan.keep
	limI, limD := c.il1.HitElisionLimit(false), c.dl1.HitElisionLimit(true)
	if ct.Index == nil {
		limI, limD = 0, 0
	}
	c.plan.limI, c.plan.limD = limI, limD
	rI, rD, lp := &c.plan.rI, &c.plan.rD, &c.plan.lp
	rI.on = limI > 0 && c.il1.StatelessHits()
	rD.on = limD > 0 && c.dl1.StatelessHits()
	lp.on = limD > 0 && !c.dl1.StatelessHits()
	if limI == 0 && limD == 0 {
		for b := range keep {
			keep[b] = ^uint64(0)
		}
		if n := len(ct.Ops) & 63; n != 0 {
			keep[len(keep)-1] = 1<<n - 1
		}
		return
	}
	t, sk, s := ct.Index, &c.plan.sk, &ct.Index.Stores
	// A skipped store's L2 hit may only set a dirty bit already set, or
	// tick an LRU L2 (storeSkip). Either DL1 rule counts every store's DL1
	// outcome.
	wb, limL2 := c.l2.AllocatesOnWrite(), c.l2.HitElisionLimit(false)
	switch {
	case rD.on && wb && c.l2.StatelessHits() && len(s.At) > 0:
		if sk.owner == nil {
			sk.alloc(c.l2.Config())
		}
		copy(keep, s.Keep)
		sk.stores, sk.rule = s, byOwner
	case lp.on && wb && limL2 > 0:
		if sk.sets == nil {
			sk.grow(c.l2.Config())
		}
		copy(keep, s.Keep)
		sk.stores, sk.rule, sk.must = s, byCertainty, t.Must
		sk.tally(ct, &c.plan)
	default:
		copy(keep, t.Must)
	}
	if rI.on {
		rI.start(&t.I, nil)
	} else {
		elide(keep, &t.I, c.plan.il1, c.plan.occ, limI)
		vacate(c.plan.occ, c.plan.il1)
	}
	switch {
	case rD.on:
		rD.start(&t.D, s)
	case lp.on:
		lp.size(c.dl1.Config(), ct)
		elide(lp.walk, &t.D, c.plan.dl1, c.plan.occ, limD)
		var sets []uint32
		if sk.rule == byCertainty {
			sets = sk.sets
		}
		lp.classify(keep, ct, t, &c.plan, sets, limL2)
		vacate(c.plan.occ, c.plan.dl1)
	default: // limD is 0: every later read
		elide(keep, &t.D, c.plan.dl1, c.plan.occ, limD)
	}
	if sk.rule == byCertainty {
		sk.certify(keep, ct, &c.plan, limL2)
	}
}

// elide adds to keep the later reads of one stream that its L1 may miss
// in this run: all of them for limit 0, and otherwise, on an LRU L1, those
// of crowded sets. A line allocates when the stream reads it (the levels
// that elide take no fill from a store); a set holding at most limit
// allocating lines skips every later read of its lines, and one holding
// more keeps them all. occ must be zero on entry; elide leaves in it, per
// set, the allocating lines it counted, which vacate clears.
//
//rm:hotpath
func elide(keep []uint64, r *trace.LineReads, plan []uint32, occ []uint32, limit int) {
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
		if occ[e&cache.SetMask] > uint32(limit) {
			for _, i := range r.At[r.Off[id]:r.Off[id+1]] {
				keep[i>>6] |= 1 << (i & 63)
			}
		}
	}
}

// vacate zeroes the per-set counters of occ that the lines of plan count.
//
//rm:hotpath
func vacate(occ []uint32, plan []uint32) {
	for _, e := range plan {
		occ[e&cache.SetMask] = 0
	}
}

// storeSkip is the scratch of store elision in a run, by one of two
// rules. Both apply only under a DL1 whose own rule (missRule or lruPass)
// counts every store's DL1 outcome, so a skipped store only hits the L2.
//
// The owner rule applies on a write-back L2 whose hits change no state
// (Random or FIFO) under a DL1 that takes the miss rule (a cold,
// write-through Random or FIFO DL1). A data line's store leaves the line
// resident and dirty in its L2 way, which the line then owns: each later
// store to it is an L2 hit that changes nothing, until an L2 fill evicts
// the way. So keepOps starts keep from trace.LineStores.Keep, which holds
// each line's first store and no later one, a replayed store makes its
// line the owner of its way, and a fill that evicts an owner marks the
// owner's next store in keep (evict). owner holds per L2 way
// (set*ways+way) 1 + the owning data line ID, or 0; it is allocated by
// the first run the rule applies to, and is all zero between runs.
//
// The certainty rule applies on a cold write-back L2 other than PLRU
// under a DL1 the LRU pass classifies (lruPass). It skips a data line's
// middle stores (all but its first and last) where this run's mapping
// makes the line's L2 set certain (certify): the set holds at most
// cache.HitElisionLimit of the lines that reach the L2 (every instruction
// line and every data line), so each of the line's stores after the
// first hits the L2, where the first left the line resident and dirty
// and no fill evicts it. keepOps starts keep from trace.LineStores.Keep,
// and certify adds back every later store of lines in uncertain sets and
// the last store of the others; the pass skips the read
// misses of lines in certain sets but each line's first and last L2
// access. An LRU L2 must tick once per skipped hit: the loop advances its
// tick by the skipped stores and read misses (must and not keep, and
// lruPass.hit) before each replayed op and at each block's end, so every
// replayed access stamps as in a full replay; a skipped hit's own stamp
// is never read, since no victim is chosen in its set and the line's
// replayed last L2 access restamps it. sets counts per L2 set the lines
// that reach it in the run (tally); it is allocated by the first run the
// rule applies to, and is all zero between runs.
type storeSkip struct {
	stores *trace.LineStores // the run's Compiled's stores
	rule   skipRule
	owner  []uint32 // per L2 way
	l2Ways int

	must []uint64 // the trace's ReplayTables.Must
	sets []uint32 // per L2 set
}

// skipRule is the store elision rule of a run.
type skipRule uint8

const (
	keepStores  skipRule = iota // the run replays every store
	byOwner                     // L2 way ownership
	byCertainty                 // certain L2 sets
)

// alloc sizes the ownership scratch for the L2 l2, once per core;
// noinline keeps its allocation out of keepOps' hot-path span.
//
//go:noinline
func (sk *storeSkip) alloc(l2 cache.Config) {
	sk.owner, sk.l2Ways = make([]uint32, l2.Sets()*l2.Ways), l2.Ways
}

// grow sizes the certify scratch for the L2 l2, once per core; noinline
// keeps its allocation out of keepOps' hot-path span.
//
//go:noinline
func (sk *storeSkip) grow(l2 cache.Config) {
	sk.sets = make([]uint32, l2.Sets())
}

// tally counts, per L2 set, the lines of ct that reach it under p's
// plans.
//
//rm:hotpath
func (sk *storeSkip) tally(ct *trace.Compiled, p *indexPlan) {
	sets := sk.sets
	for _, e := range p.l2i[:len(ct.ILines)] {
		sets[e&cache.SetMask]++
	}
	for _, e := range p.l2d[:len(ct.DLines)] {
		sets[e&cache.SetMask]++
	}
}

// certify adds to keep, which starts from trace.LineStores.Keep, the
// later stores of data lines whose L2 set this run leaves uncertain,
// with more than l2Lim lines, and the last store of every other line
// stored to more than once. p holds the run's plans. It empties the
// counts tally left.
//
//rm:hotpath
func (sk *storeSkip) certify(keep []uint64, ct *trace.Compiled, p *indexPlan, l2Lim int) {
	s, sets := sk.stores, sk.sets
	l2i, l2d := p.l2i[:len(ct.ILines)], p.l2d[:len(ct.DLines)]
	for id, e := range l2d {
		lo, hi := s.Off[id]+1, s.Off[id+1]
		if lo >= hi {
			continue // no later store
		}
		if sets[e&cache.SetMask] <= uint32(l2Lim) {
			lo = hi - 1 // the middle stores hit
		}
		for _, a := range s.At[lo:hi] {
			keep[a>>6] |= 1 << (a & 63)
		}
	}
	vacate(sets, l2i)
	vacate(sets, l2d)
}

// evict notes an L2 fill at op i that evicted the line in the way of
// plan entry e. If a data line owned the way, it no longer does, and its
// next store is marked in keep; evict reports whether that store is in
// op i's block, which the loop is walking. The loop calls it only on such
// an eviction, so it stays out of the loop's body.
//
//rm:hotpath
//go:noinline
func (sk *storeSkip) evict(keep []uint64, e uint32, i int) bool {
	w := int(e&cache.SetMask)*sk.l2Ways + int(e>>cache.SetBits)
	id := sk.owner[w]
	if id == 0 {
		return false
	}
	sk.owner[w] = 0
	s := sk.stores
	at := s.At[s.Off[id-1]:s.Off[id]]
	j, _ := slices.BinarySearch(at, uint32(i)+1)
	if j == len(at) {
		return false
	}
	a := at[j]
	keep[a>>6] |= 1 << (a & 63)
	return int(a>>6) == i>>6
}

// advance ticks the L2 by the skipped L2 hits of skip, a block's not yet
// ticked, that come before op i, and returns the rest and the cycles of
// those among them that are skipped read misses (served): l2Hit each.
//
//rm:hotpath
func advance(l2 *cache.Cache, skip, served uint64, i int) (uint64, uint64) {
	before := skip & (1<<(i&63) - 1)
	l2.Advance(uint64(bits.OnesCount64(before)))
	return skip &^ before, l2Hit * uint64(bits.OnesCount64(before&served))
}

// done accounts for the run's stores at its end, given the number the
// loop replayed, and returns the number it skipped: it adds each skipped
// store's L2 hit and zeroes the ownership scratch.
//
//rm:hotpath
func (sk *storeSkip) done(l2 *cache.Cache, replayed uint64) uint64 {
	n := uint64(len(sk.stores.At))
	l2.Hits(n - replayed)
	if sk.rule == byOwner {
		clear(sk.owner)
	}
	sk.rule = keepStores
	return n - replayed
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
// leaves uncertain: each line ID's first read, the later reads that may
// miss in the L1, and the stores that can change the L2 (the trace's
// ReplayTables and keepOps). Skipping reads needs an L1 that is cold (no
// access since construction, Flush or Reseed) and that no store fills.
//
// On a Random or FIFO L1 the run replays only the reads that miss (see
// missRule): a line's first read, and its next read after a fill evicts
// it, which the loop marks at the eviction. Every such read is a certain
// miss, served by cache.Cache.Fill without the hint check or the tag
// scan. An LRU L1 skips by occupancy: with k allocating lines in a set
// under this run's mapping, a set with k at most cache.HitElisionLimit
// (Ways) skips every later read of its lines, since a line's first read
// leaves it resident and no fill evicts it. An LRU IL1 replays every
// later read of a set of more lines. An LRU DL1 is classified instead,
// whole, by one exact LRU pass before the loop (see lruPass): the loop
// skips its hits, serves its misses at the L2 alone and skips those whose
// L2 hit is certain, and the run ends by installing the lines the pass
// left in its ways. Every rule follows a line by its ID, which
// trace.Compiled's distinct lines make sound.
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
// No store reaches a DL1 that takes either rule, which counts every
// store's DL1 outcome itself: a store misses it exactly while its line is
// not resident, before the line's first read or between an eviction and
// the line's next read; the miss rule counts those stores at each
// eviction, the LRU pass as it goes. Stores are skipped by one of two
// rules (see storeSkip). On a write-back Random or FIFO L2 under a DL1
// that takes the miss rule, by L2 way ownership: a run replays each data
// line's first store and the next store after an L2 fill evicts the
// line. On a cold write-back L2 other than PLRU under an LRU DL1 (the
// modulo+LRU baseline's), by set certainty: a run skips the stores of a
// data line but its first and last when its L2 set can hold all of its
// lines; each skipped store hits the L2, and an LRU L2's tick is advanced
// by the skipped stores and read misses before each replayed op. PLRU
// L2s, write-through L2s, warm levels and PLRU DL1s keep every store.
// Results, cache state and the replacement streams are bit-identical to
// replaying every op.
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
	rI, rD, lp, sk := &c.plan.rI, &c.plan.rD, &c.plan.lp, &c.plan.sk
	missI, missD := rI.on, rD.on // every replayed read of the stream misses
	var cycles, h1, hd, stores uint64
	replayed := 0
	owning, certain := sk.rule == byOwner, sk.rule == byCertainty
	classified := lp.on
	dl1Stores := !missD && !classified // the DL1 has no rule
	for b := range keep {
		// The block's skipped L2 hits the L2 has not ticked, and the read
		// misses among them.
		var skip, served uint64
		if certain {
			served = lp.hit[b]
			skip = sk.must[b]&^keep[b] | served
		}
		for m := keep[b]; m != 0; m &= m - 1 {
			replayed++
			i := b<<6 | bits.TrailingZeros64(m)
			if skip != 0 {
				var n uint64
				skip, n = advance(l2, skip, served, i)
				cycles += n
			}
			op := ops[i]
			id := op.ID
			marked := false // a hook marked an op in block b
			switch op.Kind {
			case trace.Fetch:
				la := ilines[id]
				if missI {
					_, il1Plan[id] = il1.Fill(la, il1Plan[id])
					marked = rI.fill(keep, il1Plan[id], id, i)
				} else if e := il1Plan[id]; il1.Hinted(la, e) {
					n := 1 + uint64(op.Rep)
					il1.ReadHit(e, n)
					h1 += n
					continue
				} else if l1Slow(il1, &il1Plan[id], la, op.Rep)&cache.BitHit != 0 {
					continue
				}
				r2 := c.l2Read(la, &l2iPlan[id])
				c.log.note(i, cycles, r2)
				cycles += l2Hit + memCycles(r2)
				// Both hooks must see the miss: one fill may evict an L1
				// line and an L2 owner.
				marked = r2&cache.BitEvicted != 0 && owning && sk.evict(keep, l2iPlan[id], i) || marked
			case trace.Load:
				la := dlines[id]
				if missD {
					_, dl1Plan[id] = dl1.Fill(la, dl1Plan[id])
					marked = rD.fill(keep, dl1Plan[id], id, i)
				} else if classified {
					// A miss the LRU pass classified: it reaches the L2
					// alone.
				} else if e := dl1Plan[id]; dl1.Hinted(la, e) {
					n := 1 + uint64(op.Rep)
					dl1.ReadHit(e, n)
					hd += n
					continue
				} else if l1Slow(dl1, &dl1Plan[id], la, op.Rep)&cache.BitHit != 0 {
					continue
				}
				r2 := c.l2Read(la, &l2dPlan[id])
				c.log.note(i, cycles, r2)
				cycles += l2Hit + memCycles(r2)
				marked = r2&cache.BitEvicted != 0 && owning && sk.evict(keep, l2dPlan[id], i) || marked
			default:
				stores++
				r := c.store(dlines[id], &dl1Plan[id], &l2dPlan[id], dl1Stores)
				c.log.note(i, cycles, r)
				cycles += memCycles(r)
				if !owning {
					continue
				}
				marked = r&cache.BitEvicted != 0 && sk.evict(keep, l2dPlan[id], i)
				e := l2dPlan[id] // the line now owns its way
				sk.owner[int(e&cache.SetMask)*sk.l2Ways+int(e>>cache.SetBits)] = id + 1
			}
			if marked {
				m = keep[b] >> (i & 63) << (i & 63)
			}
		}
		if skip != 0 {
			l2.Advance(uint64(bits.OnesCount64(skip)))
			cycles += l2Hit * uint64(bits.OnesCount64(skip&served))
		}
	}
	rI.done()
	if missD {
		dl1.Misses(rD.done())
	}
	c.plan.ops, c.plan.stores = replayed, int(stores)
	if sk.rule != keepStores {
		stores += sk.done(l2, stores)
	}
	if classified {
		lp.finish(dl1, l2, dlines, dl1Plan, len(keep))
	}
	if c.plan.limI == 0 && c.plan.limD == 0 {
		il1.Hits(h1)
		dl1.Hits(hd)
	} else {
		// Every access the levels have not counted is a hit: the
		// hinted ones and the skipped reads.
		t := ct.Index
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
// present line, and the L2 sees every store; with dl1 false the store
// skips the DL1, whose outcome the caller counts. Hits take the hinted
// way; the slow paths refresh the hints. It returns the L2's access bits.
//
//rm:hotpath
func (c *Core) store(la uint64, e1, e2 *uint32, dl1 bool) cache.AccessBits {
	if dl1 && c.dl1.Hinted(la, *e1) {
		c.dl1.WriteHit(*e1)
		c.dl1.Hits(1)
	} else if dl1 {
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

// badLineSize is the replays' cold panic helper: formatting stays off
// the annotated hot path so the escape-analysis gate
// (TestNoHeapEscapeInHotpath in internal/lint) sees no heap traffic in
// its span. noinline keeps the compiler from folding the Sprintf escape
// back into the caller's span.
//
//go:noinline
func badLineSize(got, want int) {
	panic(fmt.Sprintf("sim: compiled line size %dB does not match the platform's %dB lines", got, want))
}
