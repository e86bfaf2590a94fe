package trace

import (
	"fmt"
	"math"
	"math/bits"
)

// Op is one op of a compiled trace: the access kind plus the dense line
// ID of the touched cache line within its stream's line table (ILines for
// fetches, DLines for loads and stores), and the reads folded into it.
//
// Rep counts the reads folded into this op: Rep more accesses of the
// same kind and line that followed it in its stream, with no other access
// of that stream in between. Trail counts the folded reads (of either
// stream) that directly followed this op in the source trace, before the
// next op that was kept; it places their cycles for the shared-bus model.
// Both are zero for an unfolded op.
//
// The fold is exact. A read always leaves its line resident in its own
// L1 (a hit keeps it, a miss fills it, under every replacement kind and
// write arrangement), and nothing else reaches that L1 before the folded
// read: the instruction stream alone feeds IL1, and a folded load follows
// its load with no data access in between. So every folded read is an L1
// hit that never reaches the L2, and its only effects are the level's
// counters, one L1 hit's cycles and, under LRU, the stamp: advancing the
// tick by Rep and stamping once leaves exactly the state Rep separate
// hits leave, and a PLRU protect is idempotent.
type Op struct {
	ID    uint32
	Kind  Kind
	Trail uint8
	Rep   uint16
}

// Compiled is the dense replay form of a Trace for a fixed cache-line
// size: every access carries a stream-local line ID instead of a byte
// address, and the unique line addresses live in two side tables (one per
// stream: the instruction stream feeding IL1 and, on misses, the L2; the
// data stream feeding DL1 and the L2). Runs of same-line reads are folded
// into one op each (see Op), so Ops may be shorter than the
// trace; Accesses keeps the trace's length.
//
// The point of the renumbering is the MBPTA campaign hot loop: a campaign
// replays the same trace hundreds of times while only the placement seed
// changes, and each reseed fixes the line-to-set mapping for the whole
// run. With dense IDs a run can materialize its entire mapping up front
// as one []uint32 lookup table per cache level (an "index plan", see
// placement.IndexAll and sim.Core.RunCompiled) and replay with two array
// loads per op instead of a per-access placement hash; the fold spares
// the guaranteed hits even that.
//
// Index goes one step further and spares the hits a run's mapping
// guarantees: it marks the ops every run must replay (stores and each
// line ID's first read) and, per line ID, where its later reads sit, so
// a run whose mapping leaves a line alone enough in its L1 set replays
// only the rest (see ReplayIndex and sim.Core.RunCompiled).
//
// A Compiled is immutable after Compile and safe to share across
// concurrently executing runs.
type Compiled struct {
	Ops    []Op
	ILines []uint64 // unique instruction-stream line addresses, in first-touch order
	DLines []uint64 // unique data-stream line addresses, in first-touch order

	// Index is the run-invariant hit-elision index of Ops,
	// whose tables the first run able to skip reads builds. It depends on
	// the ops alone, so compiled traces sharing Ops share it. A nil Index
	// replays every op.
	Index *ReplayIndex

	// LineBytes is the line size the byte addresses were compiled against.
	// Replaying on a level with a different line size would mis-partition
	// accesses into lines, so executors must reject a mismatch.
	LineBytes int

	// Accesses is the number of accesses of the source trace: len(Ops)
	// plus every op's Rep.
	Accesses int
}

// Len returns the number of accesses (not ops).
func (c *Compiled) Len() int { return c.Accesses }

// Compile renumbers the trace's unique cache-line addresses into dense
// per-stream line IDs for the given line size, folds same-line reads (see
// Op) and indexes the result for hit elision, in one Numbering pass.
// lineBytes must be a power of two >= 1. The result decompiles exactly
// per stream: expanding each op Rep+1 times, the ops of one
// stream give that stream's accesses in order, and ILines[op.ID] (or
// DLines[op.ID]) equals the access address shifted by log2(lineBytes).
func Compile(t Trace, lineBytes int) (*Compiled, error) {
	if lineBytes < 1 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("trace: compile needs a power-of-two line size, got %d", lineBytes)
	}
	if uint64(len(t)) > math.MaxUint32+1 {
		return nil, fmt.Errorf("trace: compile overflows 32-bit line IDs (%d accesses)", len(t))
	}
	shift := uint(bits.TrailingZeros(uint(lineBytes)))
	n := NewNumbering(len(t))
	for _, a := range t {
		n.Add(a.Kind, a.Addr>>shift, 0)
	}
	c := &Compiled{LineBytes: lineBytes, Accesses: len(t)}
	c.Ops, c.Index = n.Finish()
	c.ILines, _ = n.Lines(Fetch)
	c.DLines, _ = n.Lines(Load)
	return c, nil
}

// Numbering is trace compilation's one streaming pass. Add numbers each
// access's (key, field mask) pair within its stream, one dense ID per
// distinct pair in first-touch order, and folds the access into an
// earlier op where Op's fold rules allow, so no per-access op sequence
// is ever built. Compile feeds it line addresses with an empty mask;
// workload.Relocatable feeds it base-layout granules with the set of
// layout fields each access moves with.
type Numbering struct {
	ops    []Op
	last   [2]int // per stream: index of the last kept op, -1 before the first
	tables [2]lineTable
}

// lineTable numbers one stream's (key, mask) pairs.
type lineTable struct {
	keys  []uint64
	masks []uint16
	ids   map[uint64]uint32 // key -> ID of its first pair
	more  map[uint32]uint32 // ID -> ID of the next pair with the same key
	prev  uint32            // ID of the stream's previous access
}

// NewNumbering returns an empty Numbering sized for a trace of accesses
// accesses, which must fit 32-bit line IDs.
func NewNumbering(accesses int) *Numbering {
	n := &Numbering{ops: make([]Op, 0, accesses), last: [2]int{-1, -1}}
	// Programs revisit lines constantly, so the unique-line tables are far
	// smaller than the trace; a modest initial capacity avoids most map
	// growth without overcommitting for tiny traces.
	for s := range n.tables {
		n.tables[s].ids = make(map[uint64]uint32, 64)
		n.tables[s].more = make(map[uint32]uint32)
	}
	return n
}

// Add appends one access of kind k, numbered by its (key, mask) pair.
//
// A read folds into its stream's last kept op when that op reads the
// same pair, unless the op's Rep or the Trail of the last kept op of
// either stream would overflow; a store never folds and ends the load
// chain before it.
func (n *Numbering) Add(k Kind, key uint64, mask uint16) {
	s := 0
	if k != Fetch {
		s = 1
	}
	// Line tables are in first-touch order, so a stream's next access
	// often touches its previous pair or the one numbered after it.
	t := &n.tables[s]
	id := t.prev
	if int(id) >= len(t.keys) || t.keys[id] != key || t.masks[id] != mask {
		if id++; int(id) >= len(t.keys) || t.keys[id] != key || t.masks[id] != mask {
			id = t.lookup(key, mask)
		}
		t.prev = id
	}
	if j := n.last[s]; j >= 0 && k != Store {
		if op, tail := &n.ops[j], &n.ops[len(n.ops)-1]; op.Kind == k && op.ID == id &&
			op.Rep < math.MaxUint16 && tail.Trail < math.MaxUint8 {
			op.Rep++
			tail.Trail++
			return
		}
	}
	n.last[s] = len(n.ops)
	n.ops = append(n.ops, Op{ID: id, Kind: k})
}

// lookup returns the ID of (key, mask) through the table's maps, adding
// the pair if it is new.
func (t *lineTable) lookup(key uint64, mask uint16) uint32 {
	id, ok := t.ids[key]
	if !ok {
		id = t.add(key, mask)
		t.ids[key] = id
	}
	// A key seen under several masks chains its pairs in first-touch order.
	for t.masks[id] != mask {
		next, ok := t.more[id]
		if !ok {
			next = t.add(key, mask)
			t.more[id] = next
		}
		id = next
	}
	return id
}

func (t *lineTable) add(key uint64, mask uint16) uint32 {
	t.keys = append(t.keys, key)
	t.masks = append(t.masks, mask)
	return uint32(len(t.keys) - 1)
}

// Finish returns the folded ops, copied into an exactly sized slice, and
// their replay index.
func (n *Numbering) Finish() ([]Op, *ReplayIndex) {
	ops := make([]Op, len(n.ops))
	copy(ops, n.ops)
	return ops, newReplayIndex(ops, len(n.tables[0].keys), len(n.tables[1].keys))
}

// Lines returns the line table of k's stream: the keys and masks of its
// pairs, in ID order.
func (n *Numbering) Lines(k Kind) (keys []uint64, masks []uint16) {
	t := &n.tables[0]
	if k != Fetch {
		t = &n.tables[1]
	}
	return t.keys, t.masks
}
