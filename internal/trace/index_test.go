package trace

import (
	"testing"

	"repro/internal/prng"
)

// TestReplayIndex checks newReplayTables against a direct classification
// of every op: Must holds exactly the stores and each line ID's first
// read per stream, each line's list holds exactly its later reads in
// ascending order, All is their union, Read records the lines read and
// Head their first reads, and Last and Accesses count
// each stream's accesses through each line's last access and in all.
// Each data line's list in Stores holds exactly its stores, in ascending
// order, Keep is Must without every store but each line's first, and
// Last is the last store's op. Cold counts the stores before their
// line's first load, and After and First hold, for each later load and
// each line's first load, the index in At of the line's next store.
func TestReplayIndex(t *testing.T) {
	g := prng.New(0x1DE)
	for round := 0; round < 200; round++ {
		n := g.Intn(400)
		nLines := 1 + g.Intn(12)
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{ID: uint32(g.Intn(nLines)), Kind: Kind(g.Intn(3)), Rep: uint16(g.Intn(3))}
			if ops[i].Kind == Store {
				ops[i].Rep = 0
			}
		}
		x := newReplayTables(ops, nLines, nLines)
		if len(x.Must) != Blocks(n) {
			t.Fatalf("round %d: %d Must blocks for %d ops", round, len(x.Must), n)
		}
		streams := [2]*LineReads{&x.I, &x.D}
		var read [2][]bool
		for s := range read {
			read[s] = make([]bool, nLines)
		}
		later := make([]bool, n)
		laterStore := make([]bool, n)
		stored := make([]bool, nLines)
		lastStore := uint32(0)
		var acc [2]uint64
		var last [2][]uint64
		var head [2][]uint32
		for s := range last {
			last[s], head[s] = make([]uint64, nLines), make([]uint32, nLines)
		}
		for i, op := range ops {
			s := stream(op.Kind)
			acc[s] += 1 + uint64(op.Rep)
			last[s][op.ID] = acc[s]
			must := op.Kind == Store || !read[s][op.ID]
			if op.Kind == Store {
				laterStore[i] = stored[op.ID]
				stored[op.ID] = true
				lastStore = uint32(i)
			}
			if op.Kind != Store {
				if read[s][op.ID] {
					later[i] = true
				} else {
					head[s][op.ID] = uint32(i)
				}
				read[s][op.ID] = true
			}
			if got := x.Must[i>>6]>>(i&63)&1 != 0; got != must {
				t.Fatalf("round %d op %d (%+v): Must bit %v, want %v", round, i, op, got, must)
			}
		}
		for s, r := range streams {
			if r.Accesses != acc[s] || len(r.Last) != nLines {
				t.Fatalf("round %d stream %d: %d accesses over %d lines, want %d over %d", round, s, r.Accesses, len(r.Last), acc[s], nLines)
			}
			for id, n := range r.Last {
				if n != last[s][id] {
					t.Fatalf("round %d stream %d line %d: last access at %d, want %d", round, s, id, n, last[s][id])
				}
			}
			all := make([]uint64, len(x.Must))
			for id := 0; id < nLines; id++ {
				if r.Read[id] != read[s][id] || r.Head[id] != head[s][id] {
					t.Fatalf("round %d stream %d line %d: read %v at op %d, want %v at %d", round, s, id, r.Read[id], r.Head[id], read[s][id], head[s][id])
				}
				at := r.At[r.Off[id]:r.Off[id+1]]
				for j, i := range at {
					if j > 0 && i <= at[j-1] {
						t.Fatalf("round %d stream %d line %d: later reads %v not ascending", round, s, id, at)
					}
					if !later[i] || int(ops[i].ID) != id || stream(ops[i].Kind) != s {
						t.Fatalf("round %d stream %d line %d: op %d (%+v) is not one of its later reads", round, s, id, i, ops[i])
					}
					all[i>>6] |= 1 << (i & 63)
				}
			}
			for b := range all {
				if all[b] != r.All[b] {
					t.Fatalf("round %d stream %d block %d: lines' reads %#x, All %#x", round, s, b, all[b], r.All[b])
				}
			}
		}
		st := &x.Stores
		if len(st.Off) != nLines+1 || len(st.Keep) != len(x.Must) || len(st.After) != len(x.D.At) || len(st.First) != nLines {
			t.Fatalf("round %d: %d store offsets, %d After and %d First entries for %d lines, %d Keep blocks",
				round, len(st.Off), len(st.After), len(st.First), nLines, len(st.Keep))
		}
		if st.Last != lastStore {
			t.Fatalf("round %d: last store at op %d, want %d", round, st.Last, lastStore)
		}
		listed := make([]bool, n)
		for id := 0; id < nLines; id++ {
			at := st.At[st.Off[id]:st.Off[id+1]]
			for j, i := range at {
				if j > 0 && i <= at[j-1] {
					t.Fatalf("round %d line %d: stores %v not ascending", round, id, at)
				}
				if ops[i].Kind != Store || int(ops[i].ID) != id {
					t.Fatalf("round %d line %d: op %d (%+v) is not one of its stores", round, id, i, ops[i])
				}
				listed[i] = true
			}
		}
		for i, op := range ops {
			if op.Kind == Store && !listed[i] {
				t.Fatalf("round %d op %d (%+v): a store in no list", round, i, op)
			}
			if got, want := st.Keep[i>>6]>>(i&63)&1 != 0, x.Must[i>>6]>>(i&63)&1 != 0 && !laterStore[i]; got != want {
				t.Fatalf("round %d op %d (%+v): Keep bit %v, want %v", round, i, op, got, want)
			}
		}
		// The next store after each load, found by a scan of At.
		nextStore := func(id int, i uint32) uint32 {
			k := st.Off[id]
			for k < st.Off[id+1] && st.At[k] < i {
				k++
			}
			return uint32(k)
		}
		cold := uint64(0)
		loaded := make([]bool, nLines)
		for i, op := range ops {
			switch {
			case op.Kind == Store && !loaded[op.ID]:
				cold++
			case op.Kind != Load:
			case !loaded[op.ID]:
				loaded[op.ID] = true
				if got, want := st.First[op.ID], nextStore(int(op.ID), uint32(i)); got != want {
					t.Fatalf("round %d op %d (%+v): First %d, want %d", round, i, op, got, want)
				}
			}
		}
		if st.Cold != cold {
			t.Fatalf("round %d: %d cold stores, want %d", round, st.Cold, cold)
		}
		for id := 0; id < nLines; id++ {
			for k := x.D.Off[id]; k < x.D.Off[id+1]; k++ {
				if got, want := st.After[k], nextStore(id, x.D.At[k]); got != want {
					t.Fatalf("round %d line %d: After[%d] (op %d) %d, want %d", round, id, k, x.D.At[k], got, want)
				}
			}
		}
		// Every later read is in its stream's All, and no op is in two
		// of Must, I.All and D.All.
		for i := range ops {
			b, bit := i>>6, uint64(1)<<(i&63)
			in := 0
			for _, m := range []uint64{x.Must[b], x.I.All[b], x.D.All[b]} {
				if m&bit != 0 {
					in++
				}
			}
			if in != 1 {
				t.Fatalf("round %d op %d in %d of Must, I.All, D.All", round, i, in)
			}
		}
	}
}

// TestReplayIndexStores pins the store lists of a short op sequence: ops
// 1, 2 and 3 are stores, op 3 a later store of line 1, so Keep holds
// every op but op 3.
func TestReplayIndexStores(t *testing.T) {
	ops := []Op{{ID: 0, Kind: Load}, {ID: 0, Kind: Store}, {ID: 1, Kind: Store}, {ID: 1, Kind: Store}, {ID: 0, Kind: Fetch}}
	s := &newReplayTables(ops, 2, 2).Stores
	if len(s.At) != 3 || s.At[0] != 1 || s.At[1] != 2 || s.At[2] != 3 || s.Keep[0] != 0b10111 {
		t.Fatalf("stores %+v, want ops 1, 2 and 3, op 3 a later store", *s)
	}
}
