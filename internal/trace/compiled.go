package trace

import (
	"fmt"
	"math"
	"math/bits"
)

// Op is one op of a compiled trace: the access kind plus the dense line
// ID of the touched cache line within its stream's line table (ILines for
// fetches, DLines for loads and stores), and the reads Fold merged into
// it.
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
// into one op each (see Op and Fold), so Ops may be shorter than the
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

	// Index is the run-invariant hit-elision index of Ops (NewReplayIndex),
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
// per-stream line IDs for the given line size, folds same-line reads
// (Fold) and indexes the result for hit elision (NewReplayIndex).
// lineBytes must be a power of two >= 1. The result decompiles exactly
// per stream: expanding each op Rep+1 times, the ops of one
// stream give that stream's accesses in order, and ILines[op.ID] (or
// DLines[op.ID]) equals the access address shifted by log2(lineBytes).
func Compile(t Trace, lineBytes int) (*Compiled, error) {
	if lineBytes < 1 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("trace: compile needs a power-of-two line size, got %d", lineBytes)
	}
	shift := uint(bits.TrailingZeros(uint(lineBytes)))
	c := &Compiled{
		Ops:       make([]Op, 0, len(t)),
		LineBytes: lineBytes,
		Accesses:  len(t),
	}
	// Programs revisit lines constantly, so the unique-line tables are far
	// smaller than the trace; a modest initial capacity avoids most map
	// growth without overcommitting for tiny traces.
	imap := make(map[uint64]uint32, 64)
	dmap := make(map[uint64]uint32, 64)
	for _, a := range t {
		la := a.Addr >> shift
		var (
			m     map[uint64]uint32
			table *[]uint64
		)
		if a.Kind == Fetch {
			m, table = imap, &c.ILines
		} else {
			m, table = dmap, &c.DLines
		}
		id, ok := m[la]
		if !ok {
			if uint64(len(*table)) > math.MaxUint32 {
				return nil, fmt.Errorf("trace: compile overflows 32-bit line IDs (%d unique lines)", len(*table))
			}
			id = uint32(len(*table))
			m[la] = id
			*table = append(*table, la)
		}
		c.Ops = append(c.Ops, Op{ID: id, Kind: a.Kind})
	}
	c.Ops = Fold(c.Ops)
	c.Index = NewReplayIndex(c.Ops, len(c.ILines), len(c.DLines))
	return c, nil
}

// Fold folds, in place, every read that directly follows a read of the
// same kind and line ID in its stream — a fetch after a fetch in the
// instruction stream, a load after a load in the data stream, where a
// store in between breaks the chain — into the earlier op's Rep, and
// counts it in the Trail of the op it directly followed in ops. Folding
// stops where a Rep or Trail would overflow. ops must be unfolded (every
// Rep and Trail zero); Fold returns the folded prefix of ops.
func Fold(ops []Op) []Op {
	last := [2]int{-1, -1} // per stream: index of the last kept op
	n := 0
	for _, op := range ops {
		s := 0
		if op.Kind != Fetch {
			s = 1
		}
		if j := last[s]; j >= 0 && op.Kind != Store && ops[j].Kind == op.Kind && ops[j].ID == op.ID &&
			ops[j].Rep < math.MaxUint16 && ops[n-1].Trail < math.MaxUint8 {
			ops[j].Rep++
			ops[n-1].Trail++
			continue
		}
		ops[n] = op
		last[s] = n
		n++
	}
	return ops[:n]
}
