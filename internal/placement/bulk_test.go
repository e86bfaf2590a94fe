package placement

import (
	"math/bits"
	"testing"

	"repro/internal/prng"
)

// rmSetCounts lists every set count RM accepts: powers of two from 2 up
// to the largest whose Benes network has at most 64 switches. Their index
// widths, 1 to 18, include every remainder modulo the 4-bit chunk of the
// benes wire tables.
func rmSetCounts() []int {
	var sets []int
	for s := 2; ; s *= 2 {
		if _, err := NewRM(s); err != nil {
			return sets
		}
		sets = append(sets, s)
	}
}

// TestIndexAllMatchesIndex pins the index-plan primitive's contract: for
// every built-in policy, every set count RM accepts and several seeds,
// IndexAll fills exactly the values Index returns line by line —
// including interleavings with scalar Index calls, which must not perturb
// the bulk results (RM's wired segment is shared state).
func TestIndexAllMatchesIndex(t *testing.T) {
	sets := rmSetCounts()
	if len(sets) != 18 {
		t.Fatalf("RM accepts %d set counts, want 18 (2 to 2^18)", len(sets))
	}
	for _, k := range Kinds() {
		for _, sets := range sets {
			p, err := New(k, sets)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed < 5; seed++ {
				p.Reseed(seed)
				g := prng.New(seed ^ 0xB0B)
				lines := make([]uint64, 500)
				for i := range lines {
					// Mix clustered lines (same segment, the common case for
					// first-touch tables) with far-flung ones.
					if i%4 == 0 {
						lines[i] = g.Bits(40)
					} else {
						lines[i] = lines[max(i-1, 0)] + g.Bits(3)
					}
				}
				out := make([]uint32, len(lines))
				IndexAll(p, lines, out)
				for i, line := range lines {
					if want := p.Index(line); out[i] != want {
						t.Fatalf("%v sets=%d seed=%d: IndexAll[%d]=%d, Index(%#x)=%d",
							k, sets, seed, i, out[i], line, want)
					}
				}
				// A second bulk pass after the scalar sweep must agree too.
				out2 := make([]uint32, len(lines))
				IndexAll(p, lines, out2)
				for i := range out {
					if out[i] != out2[i] {
						t.Fatalf("%v sets=%d seed=%d: IndexAll not idempotent at %d", k, sets, seed, i)
					}
				}
			}
		}
	}
}

func TestIndexAllLengthMismatchPanics(t *testing.T) {
	p, err := New(Modulo, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch not detected")
		}
	}()
	IndexAll(p, make([]uint64, 3), make([]uint32, 2))
}

// FuzzRMIndexAll checks RM's bulk mapping against its scalar one on
// arbitrary line tables, set counts and seeds: the bytes are read as
// 5-byte line addresses, so segments repeat, change and come back.
func FuzzRMIndexAll(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0}, uint8(7), uint64(1))
	f.Add([]byte{0xFF, 0x10, 0, 0, 0, 0x7F, 0x10, 0, 0, 0, 0x80, 0x10, 0, 0, 0, 0xFF, 0x10, 0, 0, 0}, uint8(3), uint64(9))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(18), uint64(0xDEADBEEF))
	counts := rmSetCounts()
	f.Fuzz(func(t *testing.T, data []byte, setsLog uint8, seed uint64) {
		sets := counts[int(setsLog)%len(counts)]
		lines := make([]uint64, len(data)/5)
		for i := range lines {
			for _, b := range data[5*i : 5*i+5] {
				lines[i] = lines[i]<<8 | uint64(b)
			}
		}
		p, err := NewRM(sets)
		if err != nil {
			t.Fatal(err)
		}
		p.Reseed(seed)
		out := make([]uint32, len(lines))
		IndexAll(p, lines, out)
		for i := len(lines) - 1; i >= 0; i-- { // reverse order: other segment runs
			if want := p.Index(lines[i]); out[i] != want {
				t.Fatalf("sets=%d seed=%#x: IndexAll[%d]=%d, Index(%#x)=%d", sets, seed, i, out[i], lines[i], want)
			}
		}
	})
}

// FuzzHRPIndexAll checks hRP's table-driven mapping, bulk and scalar,
// against its definition on arbitrary line tables, set counts and
// seeds: index bit i of a line is parity(line & row_i) ^ const_i over
// the hashed address bits, for the rows and constant the seed drew. The
// bytes are read as 5-byte line addresses, wider than the hashed bits.
func FuzzHRPIndexAll(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0}, uint8(10), uint64(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x07, 0xFF, 0xFF, 0xFF, 0xFF}, uint8(1), uint64(9))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(19), uint64(0xDEADBEEF))
	f.Fuzz(func(t *testing.T, data []byte, setsLog uint8, seed uint64) {
		sets := 2 << (setsLog % 20)
		lines := make([]uint64, len(data)/5)
		for i := range lines {
			for _, b := range data[5*i : 5*i+5] {
				lines[i] = lines[i]<<8 | uint64(b)
			}
		}
		pol, err := NewHRP(sets)
		if err != nil {
			t.Fatal(err)
		}
		pol.Reseed(seed)
		p := pol.(*hrpPolicy)
		out := make([]uint32, len(lines))
		IndexAll(p, lines, out)
		for i, line := range lines {
			a := line & (1<<HashedAddressBits - 1)
			want := p.consts
			for b, row := range p.rows {
				want ^= uint32(bits.OnesCount64(a&row)&1) << uint(b)
			}
			if out[i] != want || p.Index(line) != want {
				t.Fatalf("sets=%d seed=%#x line %#x: IndexAll %d, Index %d, definition %d", sets, seed, line, out[i], p.Index(line), want)
			}
		}
	})
}
