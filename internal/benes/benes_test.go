package benes

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSwitchCounts(t *testing.T) {
	// switches(n) = floor(n/2) + switches(floor(n/2)) + switches(ceil(n/2))
	//             + floor(n/2), with switches(2)=1, switches(1)=0.
	// Width 8 must give the paper's 20 control bits.
	want := map[int]int{1: 0, 2: 1, 3: 3, 4: 6, 5: 8, 6: 12, 7: 15, 8: 20, 10: 26, 16: 56}
	for w, exp := range want {
		n := MustNew(w)
		if n.Switches() != exp {
			t.Errorf("width %d: got %d switches, want %d", w, n.Switches(), exp)
		}
	}
}

func TestPaperQuote20Bits(t *testing.T) {
	// "When using a 8-bit Benes network 20 bits are required to drive the
	// actual permutation of the index bits."
	if got := MustNew(8).Switches(); got != 20 {
		t.Fatalf("8-wide network needs %d control bits, paper says 20", got)
	}
}

func TestNewRejectsBadWidth(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("New(0) succeeded")
	}
	if _, err := New(-3); err == nil {
		t.Fatal("New(-3) succeeded")
	}
}

func TestIdentityControl(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 5, 7, 8, 12} {
		n := MustNew(w)
		in := make([]int, w)
		out := make([]int, w)
		for i := range in {
			in[i] = i * 10
		}
		n.Permute(0, in, out)
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("width %d: zero control is not identity at wire %d", w, i)
			}
		}
	}
}

func TestPermuteIsBijectionForAnyControl(t *testing.T) {
	// Structural guarantee: every control word yields a permutation of the
	// wire values (no merge, no loss).
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{2, 3, 4, 5, 6, 7, 8, 9, 16} {
		n := MustNew(w)
		in := make([]int, w)
		out := make([]int, w)
		for i := range in {
			in[i] = i
		}
		for trial := 0; trial < 200; trial++ {
			ctrl := rng.Uint64()
			if n.Switches() < 64 {
				ctrl &= 1<<uint(n.Switches()) - 1
			}
			n.Permute(ctrl, in, out)
			seen := make([]bool, w)
			for _, v := range out {
				if v < 0 || v >= w || seen[v] {
					t.Fatalf("width %d ctrl %#x: output %v is not a permutation", w, ctrl, out)
				}
				seen[v] = true
			}
		}
	}
}

func TestPermuteBitsBijection(t *testing.T) {
	// For every control word, PermuteBits is a bijection on Width-bit
	// values. Exhaustive for small widths.
	for _, w := range []int{2, 3, 4, 7, 8} {
		n := MustNew(w)
		rng := rand.New(rand.NewSource(int64(w)))
		for trial := 0; trial < 100; trial++ {
			ctrl := rng.Uint64() & (1<<uint(n.Switches()) - 1)
			if err := n.CheckBijection(ctrl); err != nil {
				t.Fatalf("width %d: %v", w, err)
			}
		}
	}
}

func TestQuickPermuteBitsBijection7(t *testing.T) {
	// The LEON3 L1 of the paper has 128 sets -> 7 index bits. Property:
	// arbitrary control words never merge two distinct 7-bit indices.
	n := MustNew(7)
	mask := uint64(1)<<uint(n.Switches()) - 1
	f := func(ctrl uint64, x, y uint8) bool {
		a := uint64(x) & 0x7F
		b := uint64(y) & 0x7F
		c := ctrl & mask
		pa := n.PermuteBits(c, a)
		pb := n.PermuteBits(c, b)
		if a == b {
			return pa == pb
		}
		return pa != pb && pa < 128 && pb < 128
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteIdentity(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 5, 7, 8} {
		n := MustNew(w)
		perm := make([]int, w)
		for i := range perm {
			perm[i] = i
		}
		ctrl, err := n.Route(perm)
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		in := make([]int, w)
		out := make([]int, w)
		for i := range in {
			in[i] = i + 100
		}
		n.Permute(ctrl, in, out)
		for o := range out {
			if out[o] != in[o] {
				t.Fatalf("width %d: identity route wrong at output %d", w, o)
			}
		}
	}
}

func TestRouteAllPermutationsSmall(t *testing.T) {
	// Exhaustively route every permutation for widths up to 6 and verify
	// the network realizes it: rearrangeability in action.
	for _, w := range []int{2, 3, 4, 5, 6} {
		n := MustNew(w)
		perm := make([]int, w)
		for i := range perm {
			perm[i] = i
		}
		in := make([]int, w)
		out := make([]int, w)
		var rec func(k int)
		count := 0
		rec = func(k int) {
			if k == w {
				count++
				ctrl, err := n.Route(perm)
				if err != nil {
					t.Fatalf("width %d perm %v: %v", w, perm, err)
				}
				for i := range in {
					in[i] = i
				}
				n.Permute(ctrl, in, out)
				for o := range out {
					if out[o] != perm[o] {
						t.Fatalf("width %d perm %v: got %v", w, perm, out)
					}
				}
				return
			}
			for i := k; i < w; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
		wantCount := 1
		for i := 2; i <= w; i++ {
			wantCount *= i
		}
		if count != wantCount {
			t.Fatalf("width %d: enumerated %d permutations, want %d", w, count, wantCount)
		}
	}
}

func TestRouteRandomPermutationsLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{7, 8, 10, 13, 16} {
		n := MustNew(w)
		in := make([]int, w)
		out := make([]int, w)
		for trial := 0; trial < 300; trial++ {
			perm := rng.Perm(w)
			ctrl, err := n.Route(perm)
			if err != nil {
				t.Fatalf("width %d perm %v: %v", w, perm, err)
			}
			for i := range in {
				in[i] = i
			}
			n.Permute(ctrl, in, out)
			for o := range out {
				if out[o] != perm[o] {
					t.Fatalf("width %d perm %v: realized %v", w, perm, out)
				}
			}
		}
	}
}

func TestRouteRejectsMalformed(t *testing.T) {
	n := MustNew(4)
	cases := [][]int{
		{0, 1, 2},       // too short
		{0, 1, 2, 3, 4}, // too long
		{0, 1, 2, 2},    // duplicate
		{0, 1, 2, 4},    // out of range
		{-1, 1, 2, 3},   // negative
		{3, 3, 3, 3},    // all duplicates
	}
	for _, c := range cases {
		if _, err := n.Route(c); err == nil {
			t.Errorf("Route(%v) accepted malformed permutation", c)
		}
	}
}

func TestRouteBitsRoundTrip(t *testing.T) {
	// Route a permutation, then check PermuteBits moves bit perm[o] of the
	// input to bit o of the output... i.e. out bit o = in bit perm[o].
	n := MustNew(8)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		perm := rng.Perm(8)
		ctrl, err := n.Route(perm)
		if err != nil {
			t.Fatal(err)
		}
		for bit := 0; bit < 8; bit++ {
			y := n.PermuteBits(ctrl, 1<<uint(bit))
			// input bit `bit` must land at the output position o with
			// perm[o] == bit.
			wantPos := -1
			for o, p := range perm {
				if p == bit {
					wantPos = o
					break
				}
			}
			if y != 1<<uint(wantPos) {
				t.Fatalf("perm %v: input bit %d landed at %#x, want bit %d", perm, bit, y, wantPos)
			}
		}
	}
}

func TestControlWordCoverage(t *testing.T) {
	// Distinct control words should reach many distinct permutations for
	// a width-4 network (24 possible; the 6-switch network has 64 controls
	// and must cover all 24).
	n := MustNew(4)
	seen := make(map[[4]int]bool)
	in := []int{0, 1, 2, 3}
	out := make([]int, 4)
	for ctrl := uint64(0); ctrl < 64; ctrl++ {
		n.Permute(ctrl, in, out)
		var key [4]int
		copy(key[:], out)
		seen[key] = true
	}
	if len(seen) != 24 {
		t.Fatalf("width-4 network reaches %d permutations, want all 24", len(seen))
	}
}

func TestQuickRouteRealizesPermutation(t *testing.T) {
	n := MustNew(8)
	in := make([]int, 8)
	out := make([]int, 8)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(8)
		ctrl, err := n.Route(perm)
		if err != nil {
			return false
		}
		for i := range in {
			in[i] = i
		}
		n.Permute(ctrl, in, out)
		for o := range out {
			if out[o] != perm[o] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSwitchAtBounds: every switch build wires joins two distinct wires
// of the network.
func TestSwitchAtBounds(t *testing.T) {
	n := MustNew(8)
	for i, sw := range n.switches {
		if sw.A < 0 || sw.A >= 8 || sw.B < 0 || sw.B >= 8 || sw.A == sw.B {
			t.Fatalf("switch %d wires out of range: %+v", i, sw)
		}
	}
}

// TestRouteRotatesWires routes the rotation that sends input wire i to
// output wire (i+1) mod 4 and applies it: out[o] = in[perm[o]].
func TestRouteRotatesWires(t *testing.T) {
	n := MustNew(4)
	perm := []int{3, 0, 1, 2}
	ctrl, err := n.Route(perm)
	if err != nil {
		t.Fatal(err)
	}
	in := []int{10, 11, 12, 13}
	out := make([]int, 4)
	n.Permute(ctrl, in, out)
	if want := []int{13, 10, 11, 12}; !reflect.DeepEqual(out, want) {
		t.Fatalf("rotated wires = %v, want %v", out, want)
	}
}

// TestWiresMatchPermuteBits checks the production tables against the
// switch-by-switch oracle for every width 1..19 (width 19 has 66 switches,
// so switches past bit 63 of the control word must pass) and random
// control words: exhaustively over the bundle values up to width 10, on
// random bundles above. One Wires is reused across widths and controls,
// as RM reuses one across segments.
func TestWiresMatchPermuteBits(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var w Wires
	for width := 1; width <= 19; width++ {
		n := MustNew(width)
		mask := uint64(1)<<uint(width) - 1
		for trial := 0; trial < 50; trial++ {
			ctrl := rng.Uint64()
			n.Wire(ctrl, &w)
			for i := 0; i < 1024; i++ {
				x := uint64(i) & mask
				if width > 10 {
					x = rng.Uint64() & mask
				}
				if got, want := w.Permute(uint32(x)), n.PermuteBits(ctrl, x); uint64(got) != want {
					t.Fatalf("width %d ctrl %#x: Permute(%#x) = %#x, PermuteBits %#x", width, ctrl, x, got, want)
				}
			}
		}
	}
}

func TestWireRejectsWideNetwork(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Wire accepted a network wider than MaxWiresWidth")
		}
	}()
	var w Wires
	MustNew(MaxWiresWidth+1).Wire(0, &w)
}

// BenchmarkWire7 measures one rewiring of the paper's 7-wide L1 network,
// what RM pays at each change of cache segment.
func BenchmarkWire7(b *testing.B) {
	n := MustNew(7)
	var w Wires
	var sink uint32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Wire(uint64(i)*0x9E3779B9, &w)
		sink ^= w.Permute(uint32(i) & 0x7F)
	}
	benchSink = sink
}

var benchSink uint32

func BenchmarkRoute8(b *testing.B) {
	n := MustNew(8)
	rng := rand.New(rand.NewSource(1))
	perms := make([][]int, 64)
	for i := range perms {
		perms[i] = rng.Perm(8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Route(perms[i%len(perms)]); err != nil {
			b.Fatal(err)
		}
	}
}
