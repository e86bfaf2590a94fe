// Package prng implements the hardware-style pseudo-random number generator
// used by the MBPTA-compliant cache designs of the Random Modulo paper.
//
// The paper relies on the IEC-61508 SIL3-compliant PRNG of Agirre et al.
// (DSD 2015): a small combination generator built from maximal-length linear
// feedback shift registers (LFSRs) whose outputs are combined so that the
// result is cheap in hardware yet statistically sound enough to pass the
// MBPTA independence and identical-distribution tests. This package
// reproduces that design point: three Galois LFSRs with coprime periods
// (degrees 32, 31 and 29) stepped in lockstep and XOR-combined. The joint
// period is (2^32-1)(2^31-1)(2^29-1) ~= 2^92, far beyond any campaign length
// used in probabilistic timing analysis.
//
// The generator is deterministic: a given seed always produces the same
// stream, which makes every experiment in this repository reproducible. Use
// Derive to obtain statistically-independent per-run seeds from a master
// seed, mirroring how an analysis campaign draws a fresh hardware seed for
// every program run.
package prng

import "math/bits"

// Feedback polynomials (primitive over GF(2)) for the three Galois LFSRs.
// Taps are written with the convention that bit 0 is the output bit.
const (
	poly32 = 0xE0000200 // x^32 + x^31 + x^30 + x^10 + 1 (primitive, period 2^32-1)
	poly31 = 0x48000000 // x^31 + x^28 + 1              (primitive, period 2^31-1)
	poly29 = 0x14000000 // x^29 + x^27 + 1              (primitive, period 2^29-1)

	mask31 = 1<<31 - 1
	mask29 = 1<<29 - 1
)

// PRNG is a deterministic hardware-style pseudo-random number generator.
// The zero value is not valid; use New.
type PRNG struct {
	s32 uint32
	s31 uint32
	s29 uint32
}

// New returns a generator initialized from seed. Any seed is legal,
// including zero: the seed is first diffused through an integer hash so
// that no LFSR starts in the forbidden all-zero state.
func New(seed uint64) *PRNG {
	p := &PRNG{}
	p.Reseed(seed)
	return p
}

// Reseed reinitializes the generator from seed, as a hardware reseed line
// would latch a new value into the LFSR state registers.
func (p *PRNG) Reseed(seed uint64) {
	// SplitMix64-style diffusion: consecutive seeds yield uncorrelated
	// starting states. Three rounds feed the three registers.
	z := seed
	p.s32 = uint32(mix(&z))
	p.s31 = uint32(mix(&z)) & mask31
	p.s29 = uint32(mix(&z)) & mask29
	// A Galois LFSR locks up in the all-zero state; nudge if needed.
	if p.s32 == 0 {
		p.s32 = 0xACE1ACE1
	}
	if p.s31 == 0 {
		p.s31 = 0x1BADB002 & mask31
	}
	if p.s29 == 0 {
		p.s29 = 0x0EA7BEEF & mask29
	}
}

// mix advances a SplitMix64 state and returns the next diffused value.
func mix(z *uint64) uint64 {
	*z += 0x9E3779B97F4A7C15
	x := *z
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Table stepping. A Galois LFSR clock is linear over GF(2): the next
// state and the output bit (the state's bit 0) are XORs of state bits.
// So are the state and the outputs after any fixed number of clocks, and
// each can be assembled from per-byte images of the current state.
//
// jump32, jump31 and jump29 hold, per register and per state byte, that
// byte's 64-clock image: its share of the post-jump state and of the 64
// output bits, laid out in Bits order (clock j's output in bit 63-j).
// Uint64 XORs twelve independent lookups instead of clocking 64 times.
// The images sit in two tables. sl packs each byte's state share with
// the low byte of its output share into one 8-byte entry, so a draw of
// at most 8 bits (Intn of a power of two up to 256, Random replacement's
// victim draw) reads one entry, one cache line, per state byte and 24 KB
// in all; out holds the full output shares that only Uint64 reads.
//
// feed32, feed31 and feed29 serve the short steps of Bits: r clocks for
// 1 <= r <= 8. As long as r does not exceed the lowest feedback tap, no
// bit injected by the feedback XOR can reach the output (or trigger a
// second feedback) within the step. The lowest taps are bits 9 (poly32),
// 27 (poly31) and 26 (poly29), so any r <= 8 is safe for all three
// registers. The r output bits are then exactly the low r bits of the
// pre-step state, and the post-step state is (s >> r) XOR the accumulated
// feedback, a pure function of those r bits. feedN[r-1][v] holds that
// feedback for low bits v. The single-clock reference in the tests pins
// every table to the serial stream.
type jumpTable struct {
	sl  [4][256]uint64 // share of the post-jump state | low output byte << 32
	out [4][256]uint64 // share of the 64 output bits, Bits order
}

var (
	jump32, jump31, jump29 jumpTable
	feed32, feed31, feed29 [8][256]uint32
)

func init() {
	fillTables(poly32, &jump32, &feed32)
	fillTables(poly31, &jump31, &feed31)
	fillTables(poly29, &jump29, &feed29)
}

// fillTables builds one register's jump and feed tables. By linearity an
// entry is the XOR of the entries of its set bits, so only single-bit
// states are clocked.
func fillTables(poly uint32, jump *jumpTable, feed *[8][256]uint32) {
	for k := range jump.sl {
		for b := 1; b < 256; b++ {
			low := b & -b
			if b != low {
				jump.sl[k][b] = jump.sl[k][b&^low] ^ jump.sl[k][low]
				jump.out[k][b] = jump.out[k][b&^low] ^ jump.out[k][low]
				continue
			}
			// A single-bit state: clock it 64 times. No register mask is
			// needed: poly31 and poly29 have no bits above their widths.
			s := uint32(low) << uint(8*k)
			var out uint64
			for j := 0; j < 64; j++ {
				bit := s & 1
				out |= uint64(bit) << uint(63-j)
				s >>= 1
				if bit != 0 {
					s ^= poly
				}
			}
			jump.sl[k][b], jump.out[k][b] = uint64(s)|uint64(uint8(out))<<32, out
		}
	}
	for r := 1; r <= 8; r++ {
		for v := 0; v < 1<<r; v++ {
			var f uint32
			for j := 0; j < r; j++ {
				if v>>uint(j)&1 == 1 {
					// The bit consumed at clock j is XORed in as poly and
					// then shifted right for the remaining r-1-j clocks.
					f ^= poly >> uint(r-1-j)
				}
			}
			feed[r-1][v] = f
		}
	}
}

// step8 advances all three LFSRs by eight clocks and returns the eight
// combined output bits, bit j being the output of clock j.
//
//rm:hotpath
func (p *PRNG) step8() uint32 {
	out := (p.s32 ^ p.s31 ^ p.s29) & 0xFF
	p.s32 = p.s32>>8 ^ feed32[7][p.s32&0xFF]
	p.s31 = p.s31>>8 ^ feed31[7][p.s31&0xFF]
	p.s29 = p.s29>>8 ^ feed29[7][p.s29&0xFF]
	return out
}

// clock is step8 for r clocks, 1 <= r < 8: the n % 8 tail of Bits.
//
//rm:hotpath
func (p *PRNG) clock(r uint) uint32 {
	m := uint32(1)<<r - 1
	out := (p.s32 ^ p.s31 ^ p.s29) & m
	f := (r - 1) & 7
	p.s32 = p.s32>>r ^ feed32[f][p.s32&m&0xFF]
	p.s31 = p.s31>>r ^ feed31[f][p.s31&m&0xFF]
	p.s29 = p.s29>>r ^ feed29[f][p.s29&m&0xFF]
	return out
}

// Bits returns the next n pseudo-random bits (0 <= n <= 64), most recently
// generated bit in the least-significant position.
//
//rm:hotpath
func (p *PRNG) Bits(n int) uint64 {
	if n < 0 || n > 64 {
		badBits()
	}
	if n == 64 {
		return p.Uint64()
	}
	var v uint64
	// Most recently generated bit lands in the least-significant position,
	// so a step's outputs (bit j = clock j) enter bit-reversed.
	for ; n >= 8; n -= 8 {
		v = v<<8 | uint64(bits.Reverse8(uint8(p.step8())))
	}
	if n > 0 {
		r := uint(n)
		v = v<<r | uint64(bits.Reverse8(uint8(p.clock(r))))>>(8-r)
	}
	return v
}

// badBits is Bits' cold panic helper, kept off the annotated hot path.
//
//go:noinline
func badBits() { panic("prng: Bits count out of range") }

// Uint64 returns the next 64 pseudo-random bits: one 64-clock jump of all
// three registers.
//
//rm:hotpath
func (p *PRNG) Uint64() uint64 {
	s32, o32 := jump32.jump(p.s32)
	s31, o31 := jump31.jump(p.s31)
	s29, o29 := jump29.jump(p.s29)
	p.s32, p.s31, p.s29 = s32, s31, s29
	return o32 ^ o31 ^ o29
}

// jump returns one register's state and output bits 64 clocks on from s.
//
//rm:hotpath
func (t *jumpTable) jump(s uint32) (uint32, uint64) {
	b0, b1, b2, b3 := uint8(s), uint8(s>>8), uint8(s>>16), uint8(s>>24)
	return uint32(t.sl[0][b0] ^ t.sl[1][b1] ^ t.sl[2][b2] ^ t.sl[3][b3]),
		t.out[0][b0] ^ t.out[1][b1] ^ t.out[2][b2] ^ t.out[3][b3]
}

// jumpLow is jump that returns only the low 8 output bits.
//
//rm:hotpath
func (t *jumpTable) jumpLow(s uint32) (uint32, uint8) {
	b0, b1, b2, b3 := uint8(s), uint8(s>>8), uint8(s>>16), uint8(s>>24)
	v := t.sl[0][b0] ^ t.sl[1][b1] ^ t.sl[2][b2] ^ t.sl[3][b3]
	return uint32(v), uint8(v >> 32)
}

// low8 is Uint64's low byte: the same 64-clock jump, reading only sl.
//
//rm:hotpath
func (p *PRNG) low8() uint8 {
	s32, o32 := jump32.jumpLow(p.s32)
	s31, o31 := jump31.jumpLow(p.s31)
	s29, o29 := jump29.jumpLow(p.s29)
	p.s32, p.s31, p.s29 = s32, s31, s29
	return o32 ^ o31 ^ o29
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0. Rejection sampling removes modulo bias.
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	if n&(n-1) == 0 { // power of two: mask is exact
		if n <= 256 {
			return int(p.low8() & uint8(n-1))
		}
		return int(p.Uint64() & uint64(n-1))
	}
	max := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		v := p.Uint64()
		if v < max {
			return int(v % uint64(n))
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (p *PRNG) Float64() float64 {
	return float64(p.Bits(53)) / (1 << 53)
}

// Derive returns a fresh seed for run number run, derived from master.
// Distinct (master, run) pairs yield statistically independent seeds, the
// software analogue of drawing a new hardware seed before every program run.
func Derive(master uint64, run int) uint64 {
	z := master ^ (uint64(run)+1)*0xD1B54A32D192ED03
	mix(&z)
	return mix(&z)
}

// State returns the packed LFSR state, for golden tests and debugging.
func (p *PRNG) State() (s32, s31, s29 uint32) { return p.s32, p.s31, p.s29 }
