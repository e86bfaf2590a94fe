package trace

import (
	"math"
	"slices"
)

// ReplayTables are the run-invariant half of L1 hit elision and store
// elision over a folded op sequence, built once with the ops (Numbering's
// Finish) and shared, read-only, by every run of them. Its masks hold one
// bit per op in blocks of 64, op i being bit i%64 of block i/64.
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
// until a fill evicts it. Such a run starts from Stores.Keep instead of
// Must and marks a line's next store again when its L2 way is refilled,
// from the per-line lists of Stores.
type ReplayTables struct {
	Must   []uint64
	I, D   LineReads  // instruction and data stream
	Stores LineStores // the data stream's stores
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
// ops a run that skips stores starts from. Last is the op of the
// stream's last store.
//
// The rest counts the stores' misses in a cold write-through DL1 whose
// lines only a read fills. A store misses exactly when its line is not
// resident: before the line's first read, and from each eviction of the
// line to its next read. Cold counts the stores before their line's
// first read and the stores of lines never read. After holds, per later
// data read (the data stream's LineReads.At layout), the index in At of
// the line's first store after that read, and First, per data line ID,
// the same for the line's first read; so the stores of a line between
// two consecutive reads are At[a:b] for the two reads' entries a and b.
type LineStores struct {
	LineOps
	Keep  []uint64
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

// newReplayTables returns the tables of ops, whose instruction and data
// line IDs are below iLines and dLines, in two passes over the ops: one
// classifies each op and counts each line's later reads and stores, the
// other places them in their lists. They take about four bytes per op.
// It returns nil, which replays every op, for more than 1<<32 ops.
func newReplayTables(ops []Op, iLines, dLines int) *ReplayTables {
	if uint64(len(ops)) > math.MaxUint32 {
		return nil
	}
	nb := Blocks(len(ops))
	t := &ReplayTables{Must: make([]uint64, nb)}
	streams := [2]*LineReads{&t.I, &t.D}
	for s, n := range [2]int{iLines, dLines} {
		r := streams[s]
		r.Off = make([]int, n+1)
		r.All = make([]uint64, nb)
		r.Read = make([]bool, n)
		r.Head = make([]uint32, n)
		r.Last = make([]uint64, n)
	}
	s := &t.Stores
	s.Off, s.Keep = make([]int, dLines+1), make([]uint64, nb)
	// Classify every op, counting each line's later reads and stores in
	// Off[id+1].
	for i, op := range ops {
		b, bit := i>>6, uint64(1)<<(i&63)
		r := streams[stream(op.Kind)]
		r.Accesses += 1 + uint64(op.Rep)
		r.Last[op.ID] = r.Accesses
		switch {
		case op.Kind == Store:
			t.Must[b] |= bit
			if s.Off[op.ID+1] == 0 {
				s.Keep[b] |= bit
			}
			s.Off[op.ID+1]++
			s.Last = uint32(i)
		case !r.Read[op.ID]:
			t.Must[b] |= bit
			s.Keep[b] |= bit
			r.Read[op.ID] = true
			r.Head[op.ID] = uint32(i)
		default:
			r.All[b] |= bit
			r.Off[op.ID+1]++
		}
	}
	// Turn the counts into offsets; each list's cursor starts at its line's
	// offset.
	var next [3][]int
	for k, l := range []*LineOps{&t.I.LineOps, &t.D.LineOps, &s.LineOps} {
		n := len(l.Off) - 1
		for id := range n {
			l.Off[id+1] += l.Off[id]
		}
		l.At = make([]uint32, l.Off[n])
		next[k] = slices.Clone(l.Off[:n])
	}
	nextI, nextD, nextS := next[0], next[1], next[2]
	s.After, s.First = make([]uint32, len(t.D.At)), make([]uint32, dLines)
	// Place each later read and store, in op order, noting each data read's
	// next store.
	for i, op := range ops {
		id, first := op.ID, t.Must[i>>6]>>(i&63)&1 != 0
		switch {
		case op.Kind == Store:
			s.At[nextS[id]] = uint32(i)
			nextS[id]++
		case op.Kind == Fetch:
			if !first {
				t.I.At[nextI[id]] = uint32(i)
				nextI[id]++
			}
		case first:
			s.First[id] = uint32(nextS[id])
			s.Cold += uint64(nextS[id] - s.Off[id])
		default:
			t.D.At[nextD[id]] = uint32(i)
			s.After[nextD[id]] = uint32(nextS[id])
			nextD[id]++
		}
	}
	for id, read := range t.D.Read {
		if !read {
			s.Cold += uint64(s.Off[id+1] - s.Off[id])
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
