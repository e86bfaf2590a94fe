package trace

import (
	"math"
	"math/bits"
	"slices"
	"sync"
)

// ReplayIndex is the run-invariant half of L1 hit elision and store
// elision over a folded op sequence, built on the first Tables call:
// only a run that can skip reads needs it, so a campaign whose L1s never
// skip (PLRU L1s, or runs on warm levels) never pays for it. It is safe
// for concurrent use and shared by every run of its ops.
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
// in this run. On a cold level whose hits change no state, a later read
// misses only if a fill has evicted its line since the line's previous
// read: a run replays Must and marks, from the per-line lists of I and
// D, the next read of each line a fill evicts. On another cold level
// with a fixed mapping, a later read hits with certainty when no other
// line can fill into its L1 set: a run replays Must plus the later reads
// of the lines its mapping leaves contended, which it takes from the
// same lists (see sim.Core.RunCompiled for the rules).
//
// A store in Must may be certain too: on a write-back L2 whose hits
// change no replacement state, a data line's store leaves the line
// resident and dirty, so each later store to it is a stateless L2 hit
// until a fill evicts it. Such a run starts from Stores().Keep instead of
// Must and marks a line's next store again when its L2 way is refilled,
// from the per-line lists of Stores.
type ReplayTables struct {
	Must []uint64
	I, D LineReads // instruction and data stream

	ops        []Op // the indexed ops, for the lazy build of stores
	storesOnce sync.Once
	stores     LineStores
}

// LineOps lists ops per line ID of one stream: the ops
// At[Off[id]:Off[id+1]], ascending, are line id's. Programs rarely touch
// a line twice within 64 folded ops, so op indices are smaller than
// per-line block masks would be.
type LineOps struct {
	Off []int
	At  []uint32
}

// LineStores lists the data stream's stores per line ID, in LineOps.
// Keep is Must without every store but each line's first, per block: the
// ops a run that skips stores by L2 ownership starts from. Ends is Must
// without each line's middle stores (all but its first and last): the
// ops a run that skips the stores of lines in certain sets starts from.
// Last is the op of the stream's last store.
//
// The rest counts the stores' misses in a cold write-through DL1 whose
// lines only a read fills. A store misses exactly when its line is not
// resident: before the line's first read, and from each eviction of the
// line to its next read. Cold counts the stores before their line's
// first read and the stores of lines never read. After holds, per later data read (the data stream's
// LineReads.At layout), the index in At of the line's first store after
// that read, and First, per data line ID, the same for the line's first
// read; so the stores of a line between two consecutive reads are
// At[a:b] for the two reads' entries a and b.
type LineStores struct {
	LineOps
	Keep  []uint64
	Ends  []uint64
	Last  uint32
	Cold  uint64
	After []uint32
	First []uint32
}

// LineReads indexes the later reads of one stream's line IDs in its
// LineOps. With All, Read and Accesses it holds what a run needs to
// choose the reads it skips and count their hits.
type LineReads struct {
	LineOps

	// All masks every later read of the stream, per block.
	All []uint64

	// Read reports, per line ID, whether some op of the stream reads it:
	// the lines that fill an L1 which takes no fill from a store. Every
	// instruction line is read.
	Read []bool

	// Head holds, per line ID, the op of the line's first read (0 for a
	// line never read).
	Head []uint32

	// Last counts, per line ID, the stream's accesses (folded reps and
	// stores included) up to and including the line's last access, and
	// Accesses all of the stream's accesses: on an L1 that ticks once
	// per access, the tick and LRU stamps a full replay leaves
	// (cache.Cache.RestoreLRU). A run that skips reads also counts its
	// L1 hits up to Accesses (cache.Cache.HitsUpTo).
	Last     []uint64
	Accesses uint64
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
	x.build = func() { x.t.fill(ops, iLines, dLines) }
	return x
}

// Tables returns the index's tables, building them on the first call.
func (x *ReplayIndex) Tables() *ReplayTables {
	x.once.Do(x.build)
	return &x.t
}

func (t *ReplayTables) fill(ops []Op, iLines, dLines int) {
	nb := Blocks(len(ops))
	t.ops, t.Must = ops, make([]uint64, nb)
	streams := [2]*LineReads{&t.I, &t.D}
	for s, n := range [2]int{iLines, dLines} {
		r := streams[s]
		r.Off = make([]int, n+1)
		r.All = make([]uint64, nb)
		r.Read = make([]bool, n)
		r.Head = make([]uint32, n)
		r.Last = make([]uint64, n)
	}
	// Classify every op, counting each line's later reads in Off[id+1].
	for i, op := range ops {
		b, bit := i>>6, uint64(1)<<(i&63)
		r := streams[stream(op.Kind)]
		r.Accesses += 1 + uint64(op.Rep)
		r.Last[op.ID] = r.Accesses
		switch {
		case op.Kind == Store:
			t.Must[b] |= bit
		case !r.Read[op.ID]:
			t.Must[b] |= bit
			r.Read[op.ID] = true
			r.Head[op.ID] = uint32(i)
		default:
			r.All[b] |= bit
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
}

// Stores returns the data stream's store lists. Only a run that may skip
// stores or classifies its DL1's stores needs them, so the first call
// builds them, in O(len(ops)) time
// and four bytes per store, per later data read and per data line (two
// masks besides).
func (t *ReplayTables) Stores() *LineStores {
	t.storesOnce.Do(t.buildStores)
	return &t.stores
}

func (t *ReplayTables) buildStores() {
	n := len(t.D.Read)
	s := &t.stores
	s.Off = make([]int, n+1)
	s.Keep = slices.Clone(t.Must)
	for i, op := range t.ops {
		if op.Kind != Store {
			continue
		}
		if s.Off[op.ID+1] != 0 {
			s.Keep[i>>6] &^= 1 << (i & 63)
		}
		s.Off[op.ID+1]++
		s.Last = uint32(i)
	}
	for id := range n {
		s.Off[id+1] += s.Off[id]
	}
	s.Ends = slices.Clone(s.Keep)
	s.At = make([]uint32, s.Off[n])
	s.After = make([]uint32, len(t.D.At))
	s.First = make([]uint32, n)
	// Per line, the index in At of its next store, and the index in D.At
	// of its next later read, or -1 before its first read.
	next := make([]uint32, n)
	reads := make([]int, n)
	for id := range n {
		next[id], reads[id] = uint32(s.Off[id]), -1
	}
	for i, op := range t.ops {
		id := op.ID
		switch {
		case op.Kind == Store:
			s.At[next[id]] = uint32(i)
			next[id]++
		case op.Kind == Fetch:
		case reads[id] < 0:
			s.First[id] = next[id]
			s.Cold += uint64(next[id]) - uint64(s.Off[id])
			reads[id] = t.D.Off[id]
		default:
			s.After[reads[id]] = next[id]
			reads[id]++
		}
	}
	for id, read := range t.D.Read {
		lo, hi := s.Off[id], s.Off[id+1]
		if hi-lo > 1 {
			a := s.At[hi-1]
			s.Ends[a>>6] |= 1 << (a & 63)
		}
		if !read {
			s.Cold += uint64(hi - lo)
		}
	}
}

// stream returns 0 for the instruction stream, 1 for the data stream.
func stream(k Kind) int {
	if k == Fetch {
		return 0
	}
	return 1
}
