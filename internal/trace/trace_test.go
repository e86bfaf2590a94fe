package trace

import "testing"

func TestKindString(t *testing.T) {
	if Fetch.String() != "F" || Load.String() != "L" || Store.String() != "S" {
		t.Fatal("kind mnemonics wrong")
	}
	if Kind(7).String() != "Kind(7)" {
		t.Fatal("unknown kind mnemonic wrong")
	}
}

func TestBuilderAndCounts(t *testing.T) {
	b := NewBuilder(8)
	b.Fetch(0)
	b.Load(32)
	b.Store(64)
	b.Load(96)
	b.Append(Access{128, Fetch})
	tr := b.Trace()
	f, l, s := tr.Counts()
	if f != 2 || l != 2 || s != 1 {
		t.Fatalf("counts = %d/%d/%d", f, l, s)
	}
	if len(tr) != 5 {
		t.Fatalf("len = %d", len(tr))
	}
}

func TestFootprint(t *testing.T) {
	b := NewBuilder(0)
	for i := 0; i < 100; i++ {
		b.Load(uint64(i) * 4) // 400 bytes of stride-4 loads
	}
	tr := b.Trace()
	if fp := tr.Footprint(32); fp != 13 { // ceil(400/32) = 13 lines touched
		t.Fatalf("footprint = %d lines, want 13", fp)
	}
	if fp := tr.Footprint(64); fp != 7 {
		t.Fatalf("footprint(64) = %d lines, want 7", fp)
	}
}

func TestBuilderLen(t *testing.T) {
	b := &Builder{}
	if len(b.t) != 0 {
		t.Fatal("zero builder non-empty")
	}
	b.Load(0)
	if len(b.t) != 1 {
		t.Fatal("Len after one emit != 1")
	}
}
