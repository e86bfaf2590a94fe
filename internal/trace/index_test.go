package trace

import (
	"testing"

	"repro/internal/prng"
)

// TestReplayIndex checks the tables of newReplayIndex against a direct classification
// of every op: Must holds exactly the stores and each line ID's first
// read per stream, each line's list holds exactly its later reads in
// ascending order, All is their union, Hits sums the later reads'
// accesses, Read records the lines read, and ILast and IAccesses count
// the instruction stream's accesses through each line's last fetch and
// in all.
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
		x := newReplayIndex(ops, nLines, nLines).Tables()
		if len(x.Must) != Blocks(n) {
			t.Fatalf("round %d: %d Must blocks for %d ops", round, len(x.Must), n)
		}
		streams := [2]*LineReads{&x.I, &x.D}
		var read [2][]bool
		var hits [2][]uint64
		for s := range read {
			read[s], hits[s] = make([]bool, nLines), make([]uint64, nLines)
		}
		later := make([]bool, n)
		var acc uint64
		last := make([]uint64, nLines)
		for i, op := range ops {
			s := stream(op.Kind)
			if op.Kind == Fetch {
				acc += 1 + uint64(op.Rep)
				last[op.ID] = acc
			}
			must := op.Kind == Store || !read[s][op.ID]
			if op.Kind != Store {
				if read[s][op.ID] {
					later[i] = true
					hits[s][op.ID] += 1 + uint64(op.Rep)
				}
				read[s][op.ID] = true
			}
			if got := x.Must[i>>6]>>(i&63)&1 != 0; got != must {
				t.Fatalf("round %d op %d (%+v): Must bit %v, want %v", round, i, op, got, must)
			}
		}
		if x.IAccesses != acc || len(x.ILast) != nLines {
			t.Fatalf("round %d: %d instruction accesses over %d lines, want %d over %d", round, x.IAccesses, len(x.ILast), acc, nLines)
		}
		for id, n := range x.ILast {
			if n != last[id] {
				t.Fatalf("round %d line %d: last fetch at access %d, want %d", round, id, n, last[id])
			}
		}
		for s, r := range streams {
			all := make([]uint64, len(x.Must))
			for id := 0; id < nLines; id++ {
				if r.Hits[id] != hits[s][id] || r.Read[id] != read[s][id] {
					t.Fatalf("round %d stream %d line %d: hits %d read %v, want %d and %v",
						round, s, id, r.Hits[id], r.Read[id], hits[s][id], read[s][id])
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
