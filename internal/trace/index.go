package trace

import (
	"math"
	"math/bits"
	"sync"
)

// ReplayIndex is the run-invariant half of L1 hit elision over a folded
// op sequence, built on the first Tables call: only a run that can skip
// reads needs it, so a campaign whose L1s never skip (PLRU L1s, or
// runs on warm levels) never pays for it. It is safe for concurrent use and shared by every run of
// its ops.
type ReplayIndex struct {
	once  sync.Once
	build func()
	t     ReplayTables
}

// ReplayTables are the tables of a ReplayIndex. Its masks hold one bit
// per op in blocks of 64, op i being bit i%64 of block i/64.
//
// Every run must replay Must: each store and each line ID's first read
// (per stream). Every other read is a later read of a line already read
// in this run. Once a cold level has a fixed mapping, a later read of a
// line whose L1 set no other line can fill into hits with certainty (see
// sim.Core.RunCompiled for the rule); a run replays Must plus the later
// reads of the lines its mapping leaves contended, which it takes from
// the per-line lists of I and D.
type ReplayTables struct {
	Must []uint64
	I, D LineReads // instruction and data stream

	// ILast counts, per instruction line ID, the instruction stream's
	// accesses (folded reps included) up to and including the line's
	// last fetch, and IAccesses all of the stream's accesses: on an IL1
	// that ticks once per access, the tick and LRU stamps a full replay
	// leaves (cache.Cache.RestoreLRU). The data stream has none: the
	// replay counts the DL1 as stored-to, and a stored-to LRU level
	// skips no read, so it never restores.
	ILast     []uint64
	IAccesses uint64
}

// LineReads indexes the later reads of one stream's line IDs: the ops
// At[Off[id]:Off[id+1]], ascending, are the later reads of line id.
// Programs rarely read a line twice within 64 folded ops, so op indices
// are smaller than per-line block masks would be. With Hits, All and
// Read it holds what a run needs to choose and count the reads it
// skips.
type LineReads struct {
	Off []int
	At  []uint32

	// Hits counts, per line ID, the accesses its later reads make (their
	// folded reps included): what a run skipping them adds to the level's
	// hit counters.
	Hits []uint64

	// All masks every later read of the stream, per block.
	All []uint64

	// Read reports, per line ID, whether some op of the stream reads it:
	// the lines that fill an L1 which takes no fill from a store. Every
	// instruction line is read.
	Read []bool
}

// Blocks returns the number of 64-op blocks of n ops.
func Blocks(n int) int { return (n + 63) >> 6 }

// newReplayIndex returns the index of ops, whose instruction and data
// line IDs are below iLines and dLines. Building its tables costs
// O(len(ops)) time and about four bytes per op. It returns nil, which
// replays every op, for more than 1<<32 ops.
func newReplayIndex(ops []Op, iLines, dLines int) *ReplayIndex {
	if uint64(len(ops)) > math.MaxUint32 {
		return nil
	}
	x := &ReplayIndex{}
	x.build = func() { x.t = newTables(ops, iLines, dLines) }
	return x
}

// Tables returns the index's tables, building them on the first call.
func (x *ReplayIndex) Tables() *ReplayTables {
	x.once.Do(x.build)
	return &x.t
}

func newTables(ops []Op, iLines, dLines int) ReplayTables {
	nb := Blocks(len(ops))
	t := ReplayTables{Must: make([]uint64, nb), ILast: make([]uint64, iLines)}
	streams := [2]*LineReads{&t.I, &t.D}
	for s, n := range [2]int{iLines, dLines} {
		r := streams[s]
		r.Off = make([]int, n+1)
		r.Hits = make([]uint64, n)
		r.All = make([]uint64, nb)
		r.Read = make([]bool, n)
	}
	// Classify every op, counting each line's later reads in Off[id+1].
	for i, op := range ops {
		b, bit := i>>6, uint64(1)<<(i&63)
		r := streams[stream(op.Kind)]
		if op.Kind == Fetch {
			t.IAccesses += 1 + uint64(op.Rep)
			t.ILast[op.ID] = t.IAccesses
		}
		switch {
		case op.Kind == Store:
			t.Must[b] |= bit
		case !r.Read[op.ID]:
			t.Must[b] |= bit
			r.Read[op.ID] = true
		default:
			r.All[b] |= bit
			r.Hits[op.ID] += 1 + uint64(op.Rep)
			r.Off[op.ID+1]++
		}
	}
	// Turn the counts into offsets and place each later read, in op order.
	for _, r := range streams {
		for id := range r.Read {
			r.Off[id+1] += r.Off[id]
		}
		r.At = make([]uint32, r.Off[len(r.Read)])
		next := make([]int, len(r.Read))
		copy(next, r.Off)
		for b, m := range r.All {
			for ; m != 0; m &= m - 1 {
				i := b<<6 | bits.TrailingZeros64(m)
				id := ops[i].ID
				r.At[next[id]] = uint32(i)
				next[id]++
			}
		}
	}
	return t
}

// stream returns 0 for the instruction stream, 1 for the data stream.
func stream(k Kind) int {
	if k == Fetch {
		return 0
	}
	return 1
}
