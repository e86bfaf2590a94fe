package prng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestReproducibility(t *testing.T) {
	a := New(12345)
	b := New(12345)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("streams diverge at step %d: %x vs %x", i, got, want)
		}
	}
}

func TestDistinctSeedsDistinctStreams(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	const n = 256
	for i := 0; i < n; i++ {
		if a.Bits(32) == b.Bits(32) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/%d identical words", same, n)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	p := New(0)
	s32, s31, s29 := p.State()
	if s32 == 0 || s31 == 0 || s29 == 0 {
		t.Fatalf("zero seed left an LFSR in lock-up state: %x %x %x", s32, s31, s29)
	}
	// The stream must not be constant.
	first := uint32(p.Bits(32))
	varies := false
	for i := 0; i < 16; i++ {
		if uint32(p.Bits(32)) != first {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("zero-seeded stream appears constant")
	}
}

func TestMonobitBalance(t *testing.T) {
	// NIST-style frequency test: the fraction of ones over a long stream
	// must be near 1/2. With n bits, |ones - n/2| should be within ~4 sigma
	// (sigma = sqrt(n)/2).
	p := New(0xC0FFEE)
	const n = 1 << 16
	ones := 0
	for i := 0; i < n/64; i++ {
		v := p.Uint64()
		for ; v != 0; v &= v - 1 {
			ones++
		}
	}
	dev := math.Abs(float64(ones) - n/2)
	if dev > 4*math.Sqrt(n)/2 {
		t.Fatalf("monobit imbalance: %d ones of %d bits (dev %.1f)", ones, n, dev)
	}
}

func TestByteChiSquare(t *testing.T) {
	// Chi-square over byte values: 255 degrees of freedom, mean 255,
	// stddev ~= sqrt(2*255) ~= 22.6. Accept within 255 +- 6 sigma.
	p := New(987654321)
	const n = 1 << 16
	var counts [256]int
	for i := 0; i < n; i++ {
		counts[p.Bits(8)]++
	}
	expected := float64(n) / 256
	chi := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	if chi < 255-6*22.6 || chi > 255+6*22.6 {
		t.Fatalf("byte chi-square %f out of plausible range", chi)
	}
}

func TestSerialCorrelation(t *testing.T) {
	// Lag-1 serial correlation of successive 32-bit outputs should be
	// near zero for a sound generator.
	p := New(42)
	const n = 8192
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(uint32(p.Bits(32)))
	}
	var sx, sxx, sxy float64
	for i := 0; i < n-1; i++ {
		sx += xs[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * xs[i+1]
	}
	m := sx / float64(n-1)
	cov := sxy/float64(n-1) - m*m
	varx := sxx/float64(n-1) - m*m
	r := cov / varx
	if math.Abs(r) > 0.05 {
		t.Fatalf("lag-1 serial correlation too high: %f", r)
	}
}

func TestIntnBounds(t *testing.T) {
	p := New(7)
	for _, n := range []int{1, 2, 3, 7, 10, 128, 1000} {
		for i := 0; i < 200; i++ {
			v := p.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformSmall(t *testing.T) {
	p := New(99)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[p.Intn(n)]++
	}
	expected := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Fatalf("Intn(%d): value %d drawn %d times, expected ~%.0f", n, v, c, expected)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bits(65) did not panic")
		}
	}()
	New(1).Bits(65)
}

func TestFloat64Range(t *testing.T) {
	p := New(31337)
	for i := 0; i < 10000; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %f", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	p := New(2024)
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += p.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %f far from 0.5", mean)
	}
}

// clone copies a generator's state: a PRNG holds no references, so the
// copy continues the same stream independently.
func clone(p *PRNG) *PRNG {
	q := *p
	return &q
}

func TestCloneIndependence(t *testing.T) {
	a := New(555)
	a.Uint64()
	b := clone(a)
	// The copy must continue the same stream...
	av, bv := a.Uint64(), b.Uint64()
	if av != bv {
		t.Fatalf("clone diverged immediately: %x vs %x", av, bv)
	}
	// ...but advancing one must not affect the other: b's third stream
	// word must match a fresh generator's third word.
	a.Uint64()
	a.Uint64()
	bv2 := b.Uint64()
	c := New(555)
	c.Uint64()
	c.Uint64()
	if bv2 != c.Uint64() {
		t.Fatal("advancing the original perturbed the clone")
	}
}

func TestDeriveDistinct(t *testing.T) {
	seen := make(map[uint64]int)
	const master = 0xDEADBEEF
	for run := 0; run < 4096; run++ {
		s := Derive(master, run)
		if prev, dup := seen[s]; dup {
			t.Fatalf("Derive collision: runs %d and %d both yield %x", prev, run, s)
		}
		seen[s] = run
	}
}

func TestDeriveDeterministic(t *testing.T) {
	if Derive(1, 2) != Derive(1, 2) {
		t.Fatal("Derive is not deterministic")
	}
	if Derive(1, 2) == Derive(1, 3) || Derive(1, 2) == Derive(2, 2) {
		t.Fatal("Derive ignores one of its inputs")
	}
}

// Property: reseeding with the same value always resets to the same stream.
func TestQuickReseedDeterminism(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		p := New(seed)
		want := make([]uint32, 8)
		for i := range want {
			want[i] = uint32(p.Bits(32))
		}
		for i := 0; i < int(steps); i++ {
			p.Bits(32)
		}
		p.Reseed(seed)
		for i := range want {
			if uint32(p.Bits(32)) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: no LFSR ever reaches the all-zero lock-up state.
func TestQuickNoLockup(t *testing.T) {
	f := func(seed uint64) bool {
		p := New(seed)
		for i := 0; i < 512; i++ {
			p.step()
			s32, s31, s29 := p.State()
			if s32 == 0 || s31 == 0 || s29 == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// step is the single-clock reference: it advances all three LFSRs by one
// clock and returns the combined output bit, exactly as the hardware
// combiner XORs the register outputs. Every table in the package is pinned
// to the stream it produces.
func (p *PRNG) step() uint32 {
	out := (p.s32 ^ p.s31 ^ p.s29) & 1

	if p.s32&1 != 0 {
		p.s32 = (p.s32 >> 1) ^ poly32
	} else {
		p.s32 >>= 1
	}
	if p.s31&1 != 0 {
		p.s31 = ((p.s31 >> 1) ^ poly31) & mask31
	} else {
		p.s31 >>= 1
	}
	if p.s29&1 != 0 {
		p.s29 = ((p.s29 >> 1) ^ poly29) & mask29
	} else {
		p.s29 >>= 1
	}
	return out
}

// referenceBits is Bits by n single clockings.
func referenceBits(p *PRNG, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<1 | uint64(p.step())
	}
	return v
}

// referenceIntn is Intn over referenceBits(64) draws.
func referenceIntn(p *PRNG, n int) int {
	if n&(n-1) == 0 {
		return int(referenceBits(p, 64) & uint64(n-1))
	}
	max := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		if v := referenceBits(p, 64); v < max {
			return int(v % uint64(n))
		}
	}
}

// TestBatchedStepMatchesReference drives the table-stepped draws and the
// single-clock reference in lockstep over 1000 seeds: first Bits(n) for
// every n in 0..64, then Uint64, Intn and Bits draws interleaved in a
// seed-dependent order. Outputs and LFSR states must agree after every
// draw. The Intn widths include 256, the widest power of two drawn from
// the low output bytes packed with the states, and 512, the narrowest
// drawn from the full 64-bit outputs.
func TestBatchedStepMatchesReference(t *testing.T) {
	intns := []int{1, 2, 3, 4, 7, 8, 10, 16, 64, 128, 256, 512, 1000, 1<<62 + 1}
	for seed := uint64(0); seed < 1000; seed++ {
		a := New(seed * 0x9E3779B9)
		b := clone(a)
		order := New(seed) // its draws only pick the interleaving
		for i := 0; i < 3*65; i++ {
			var got, want uint64
			var what string
			kind, n := 2, i
			if i >= 65 {
				kind, n = order.Intn(3), order.Intn(65)
			}
			switch kind {
			case 0:
				got, want, what = a.Uint64(), referenceBits(b, 64), "Uint64()"
			case 1:
				m := intns[n%len(intns)]
				got, want = uint64(a.Intn(m)), uint64(referenceIntn(b, m))
				what = fmt.Sprintf("Intn(%d)", m)
			default:
				got, want, what = a.Bits(n), referenceBits(b, n), fmt.Sprintf("Bits(%d)", n)
			}
			if got != want {
				t.Fatalf("seed %d draw %d: %s = %#x, reference %#x", seed, i, what, got, want)
			}
			a32, a31, a29 := a.State()
			b32, b31, b29 := b.State()
			if a32 != b32 || a31 != b31 || a29 != b29 {
				t.Fatalf("seed %d draw %d: state diverged after %s", seed, i, what)
			}
		}
	}
}

// TestBatchTablesMatchSingleSteps checks the table construction directly:
// from any reachable state, step8 must equal eight step() calls, clock(r)
// r of them for every r in 1..7, and the jump behind Uint64 64 of them.
func TestBatchTablesMatchSingleSteps(t *testing.T) {
	same := func(a, b *PRNG) bool {
		a32, a31, a29 := a.State()
		b32, b31, b29 := b.State()
		return a32 == b32 && a31 == b31 && a29 == b29
	}
	for seed := uint64(0); seed < 50; seed++ {
		for r := uint(1); r <= 8; r++ {
			a := New(seed)
			b := clone(a)
			var want uint32
			for j := uint(0); j < r; j++ {
				want |= b.step() << j
			}
			var got uint32
			if r == 8 {
				got = a.step8()
			} else {
				got = a.clock(r)
			}
			if got != want || !same(a, b) {
				t.Fatalf("seed %d: clock(%d) = %#x, %d steps %#x (states equal: %v)", seed, r, got, r, want, same(a, b))
			}
		}
		a := New(seed)
		b := clone(a)
		var want uint64
		for j := 0; j < 64; j++ {
			want = want<<1 | uint64(b.step())
		}
		if got := a.Uint64(); got != want || !same(a, b) {
			t.Fatalf("seed %d: jump = %#x, 64 steps %#x (states equal: %v)", seed, got, want, same(a, b))
		}
	}
}

func BenchmarkBits32(b *testing.B) {
	p := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Bits(32)
	}
}

func BenchmarkDerive(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Derive(42, i)
	}
}

func BenchmarkUint64(b *testing.B) {
	p := New(1)
	var sink uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink ^= p.Uint64()
	}
	benchSink = sink
}

// BenchmarkIntn4 is Random replacement's victim draw on a 4-way cache.
func BenchmarkIntn4(b *testing.B) {
	p := New(1)
	var sink int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink ^= p.Intn(4)
	}
	benchSink = uint64(sink)
}

var benchSink uint64

func BenchmarkBits53(b *testing.B) {
	p := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= p.Bits(53)
	}
	benchSink = sink
}
