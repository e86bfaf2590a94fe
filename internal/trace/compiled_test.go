package trace

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

// Counts returns the number of fetches, loads and stores, folded reads
// included: the oracle that folding keeps Trace.Counts of the source.
func (c *Compiled) Counts() (fetches, loads, stores int) {
	for _, op := range c.Ops {
		n := 1 + int(op.Rep)
		switch op.Kind {
		case Fetch:
			fetches += n
		case Load:
			loads += n
		default:
			stores += n
		}
	}
	return
}

func TestCompileRejectsBadLineSize(t *testing.T) {
	tr := Trace{{Addr: 0, Kind: Load}}
	for _, lb := range []int{0, -1, 3, 24, 48} {
		if _, err := Compile(tr, lb); err == nil {
			t.Errorf("line size %d accepted", lb)
		}
	}
}

func TestCompileRenumbersPerStream(t *testing.T) {
	b := NewBuilder(0)
	b.Fetch(0x1000) // I line 0x80
	b.Load(0x1000)  // same byte address, data stream: D line 0x80 gets its own ID 0
	b.Fetch(0x1020) // I line 0x81
	b.Fetch(0x1001) // I line 0x80 again -> ID 0
	b.Store(0x2000) // D line 0x100
	b.Load(0x2010)  // same D line 0x100 -> ID 1
	ct, err := Compile(b.Trace(), 32)
	if err != nil {
		t.Fatal(err)
	}
	wantI := []uint64{0x80, 0x81}
	wantD := []uint64{0x80, 0x100}
	if len(ct.ILines) != len(wantI) || len(ct.DLines) != len(wantD) {
		t.Fatalf("line tables I=%v D=%v, want I=%v D=%v", ct.ILines, ct.DLines, wantI, wantD)
	}
	for i, w := range wantI {
		if ct.ILines[i] != w {
			t.Fatalf("ILines[%d] = %#x, want %#x", i, ct.ILines[i], w)
		}
	}
	for i, w := range wantD {
		if ct.DLines[i] != w {
			t.Fatalf("DLines[%d] = %#x, want %#x", i, ct.DLines[i], w)
		}
	}
	// No read repeats its stream's previous access, so nothing folds.
	wantOps := []Op{
		{ID: 0, Kind: Fetch}, {ID: 0, Kind: Load}, {ID: 1, Kind: Fetch},
		{ID: 0, Kind: Fetch}, {ID: 1, Kind: Store}, {ID: 1, Kind: Load},
	}
	if len(ct.Ops) != len(wantOps) {
		t.Fatalf("%d ops, want %d", len(ct.Ops), len(wantOps))
	}
	for i, w := range wantOps {
		if ct.Ops[i] != w {
			t.Fatalf("Ops[%d] = %+v, want %+v", i, ct.Ops[i], w)
		}
	}
}

// randomTrace draws n accesses over a tight address range, so lines
// repeat and consecutive same-line reads occur in both streams.
func randomTrace(seed uint64, n int) Trace {
	g := prng.New(seed)
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		addr := g.Bits(8) // eight 32-byte lines
		switch g.Intn(3) {
		case 0:
			b.Fetch(addr)
		case 1:
			b.Load(addr)
		default:
			b.Store(addr)
		}
	}
	return b.Trace()
}

// expand returns, per stream (0 = fetches, 1 = loads and stores), the
// access sequence c's ops stand for: each op Rep+1 times.
func expand(c *Compiled) [2][]Op {
	var out [2][]Op
	for _, op := range c.Ops {
		s := 0
		if op.Kind != Fetch {
			s = 1
		}
		for r := 0; r <= int(op.Rep); r++ {
			out[s] = append(out[s], Op{ID: op.ID, Kind: op.Kind})
		}
	}
	return out
}

// TestCompileDecompilesExactly is the renumbering round-trip property: for
// random traces, expanding each stream's ops reproduces that stream's
// accesses in order, with each op's side-table entry equal to the
// access's line address, and the line tables are dense, duplicate-free
// and in first-touch order.
func TestCompileDecompilesExactly(t *testing.T) {
	f := func(seedLo uint32, n uint8) bool {
		tr := randomTrace(uint64(seedLo), int(n))
		ct, err := Compile(tr, 32)
		if err != nil || ct.Len() != len(tr) {
			return false
		}
		streams := expand(ct)
		var pos [2]int
		seen := [2]map[uint64]bool{{}, {}}
		tables := [2][]uint64{ct.ILines, ct.DLines}
		for _, a := range tr {
			s := 0
			if a.Kind != Fetch {
				s = 1
			}
			if pos[s] >= len(streams[s]) {
				return false
			}
			op := streams[s][pos[s]]
			pos[s]++
			la := tables[s][op.ID]
			if op.Kind != a.Kind || la != a.Addr>>5 {
				return false
			}
			if !seen[s][la] && int(op.ID) != len(seen[s]) { // first touch takes the next ID
				return false
			}
			seen[s][la] = true
		}
		// Density: every table entry was referenced by some op, so the
		// tables hold exactly the unique lines of their stream.
		return pos[0] == len(streams[0]) && pos[1] == len(streams[1]) &&
			len(seen[0]) == len(ct.ILines) && len(seen[1]) == len(ct.DLines)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFold is Fold's property test on random unfolded op sequences:
// expanding each stream's folded ops reproduces that stream's original
// ID sequence, Counts equals Trace.Counts, nothing foldable is left
// unfolded, and the Trails place every op where it stood: giving each op
// Trail slots after it puts every kept op back at its source position.
func TestFold(t *testing.T) {
	f := func(seedLo uint32, n uint8) bool {
		tr := randomTrace(uint64(seedLo)<<8|uint64(n), int(n)*4)
		ct, err := Compile(tr, 32)
		if err != nil {
			return false
		}
		f1, l1, s1 := tr.Counts()
		f2, l2, s2 := ct.Counts()
		if f1 != f2 || l1 != l2 || s1 != s2 {
			return false
		}
		// The unfolded form: one op per access, in trace order.
		ids := [2]map[uint64]uint32{{}, {}}
		raw := make([]Op, len(tr))
		for i, a := range tr {
			s := 0
			if a.Kind != Fetch {
				s = 1
			}
			id, ok := ids[s][a.Addr>>5]
			if !ok {
				id = uint32(len(ids[s]))
				ids[s][a.Addr>>5] = id
			}
			raw[i] = Op{ID: id, Kind: a.Kind}
		}
		rawStreams := expand(&Compiled{Ops: raw})
		got := expand(ct)
		for s := range got {
			if len(got[s]) != len(rawStreams[s]) {
				return false
			}
			for i := range got[s] {
				if got[s][i] != rawStreams[s][i] {
					return false
				}
			}
		}
		pos, folded := 0, 0
		for k, op := range ct.Ops {
			if raw[pos] != (Op{ID: op.ID, Kind: op.Kind}) {
				return false
			}
			pos += 1 + int(op.Trail)
			folded += int(op.Rep)
			if k > 0 && op.Kind != Store && op.Kind == ct.Ops[k-1].Kind && op.ID == ct.Ops[k-1].ID {
				return false // a directly repeated read was left unfolded
			}
		}
		return pos == len(tr) && len(ct.Ops)+folded == len(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFoldChains pins the fold rules on a hand-written trace: reads fold
// across accesses of the other stream, a store breaks a load chain, and
// Trail records where each folded read stood.
func TestFoldChains(t *testing.T) {
	b := NewBuilder(0)
	b.Fetch(0x1000) // op 0: F0, Rep 2
	b.Load(0x2000)  // op 1: L0, Rep 1
	b.Fetch(0x1004) // folds into op 0, stood after op 1
	b.Load(0x2008)  // folds into op 1, stood after op 1
	b.Store(0x2000) // op 2: S0 breaks the load chain
	b.Load(0x2000)  // op 3: L0
	b.Fetch(0x1010) // folds into op 0, stood after op 3
	b.Fetch(0x1020) // op 4: F1
	ct, err := Compile(b.Trace(), 32)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{ID: 0, Kind: Fetch, Rep: 2},
		{ID: 0, Kind: Load, Rep: 1, Trail: 2},
		{ID: 0, Kind: Store},
		{ID: 0, Kind: Load, Trail: 1},
		{ID: 1, Kind: Fetch},
	}
	if len(ct.Ops) != len(want) || ct.Len() != 8 {
		t.Fatalf("ops %+v (Len %d), want %+v (Len 8)", ct.Ops, ct.Len(), want)
	}
	for i, w := range want {
		if ct.Ops[i] != w {
			t.Fatalf("Ops[%d] = %+v, want %+v", i, ct.Ops[i], w)
		}
	}
}

// TestFoldSaturates checks that a run longer than Trail can count starts
// a new op instead of overflowing: 2^17 back-to-back loads of one line
// fold 256 to an op.
func TestFoldSaturates(t *testing.T) {
	ops := make([]Op, 1<<17)
	for i := range ops {
		ops[i] = Op{ID: 7, Kind: Load}
	}
	folded := Fold(ops)
	total := 0
	for _, op := range folded {
		if op.ID != 7 || op.Kind != Load || op.Rep != uint16(op.Trail) {
			t.Fatalf("op %+v", op)
		}
		total += 1 + int(op.Rep)
	}
	if total != 1<<17 || len(folded) != (1<<17+255)/256 {
		t.Fatalf("%d ops cover %d accesses", len(folded), total)
	}

	// Loads of one line between alternating fetches fold across them,
	// each fetch trailing one, until Rep saturates.
	ops = ops[:0]
	for i := 0; i < 70000; i++ {
		ops = append(ops, Op{ID: 9, Kind: Load}, Op{ID: uint32(i % 2), Kind: Fetch})
	}
	folded = Fold(ops)
	if folded[0].Rep != math.MaxUint16 || folded[1].Trail != 1 {
		t.Fatalf("first ops %+v %+v, want Rep %d, Trail 1", folded[0], folded[1], math.MaxUint16)
	}
	total = 0
	for _, op := range folded {
		total += 1 + int(op.Rep)
	}
	if total != 140000 {
		t.Fatalf("folded ops cover %d accesses, want 140000", total)
	}
}

func TestCompiledCountsMatchTrace(t *testing.T) {
	b := NewBuilder(0)
	for i := 0; i < 30; i++ {
		b.Fetch(uint64(i) * 32)
	}
	for i := 0; i < 20; i++ {
		b.Load(uint64(i) * 64)
	}
	for i := 0; i < 10; i++ {
		b.Store(uint64(i) * 128)
	}
	tr := b.Trace()
	ct, err := Compile(tr, 32)
	if err != nil {
		t.Fatal(err)
	}
	f1, l1, s1 := tr.Counts()
	f2, l2, s2 := ct.Counts()
	if f1 != f2 || l1 != l2 || s1 != s2 {
		t.Fatalf("compiled counts %d/%d/%d, trace counts %d/%d/%d", f2, l2, s2, f1, l1, s1)
	}
}

func TestCompileEmptyTrace(t *testing.T) {
	ct, err := Compile(nil, 32)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Len() != 0 || len(ct.ILines) != 0 || len(ct.DLines) != 0 {
		t.Fatalf("empty trace compiled to %d ops, %d/%d lines", ct.Len(), len(ct.ILines), len(ct.DLines))
	}
}
