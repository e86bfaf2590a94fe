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

// Batch stepping tables: stepping a Galois LFSR k times is linear over
// GF(2), and as long as k does not exceed the lowest feedback tap no bit
// injected by the feedback XOR can reach the output (or trigger a second
// feedback) within the batch. The lowest taps here are bits 9 (poly32),
// 27 (poly31) and 26 (poly29), so an 8-step batch is safe for all three
// registers: the 8 output bits are exactly the low byte of the pre-batch
// state, and the post-batch state is (s >> 8) XOR the accumulated
// feedback, a pure function of the consumed byte. The tables hold that
// accumulated feedback per consumed byte, making Bits(64) 8 table steps
// instead of 64 serial clockings while producing the identical stream
// (pinned by TestBatchedStepMatchesReference).
var batch32, batch31, batch29 [256]uint32

func init() {
	for b := 0; b < 256; b++ {
		for j := 0; j < 8; j++ {
			if b>>uint(j)&1 == 1 {
				// The bit consumed at batch step j is XORed in as poly and
				// then shifted right for the remaining 7-j steps.
				batch32[b] ^= poly32 >> uint(7-j)
				batch31[b] ^= poly31 >> uint(7-j)
				batch29[b] ^= poly29 >> uint(7-j)
			}
		}
	}
}

// step8 advances all three LFSRs by eight clocks and returns the eight
// combined output bits, bit j being the output of clock j.
func (p *PRNG) step8() uint32 {
	out := (p.s32 ^ p.s31 ^ p.s29) & 0xFF
	p.s32 = p.s32>>8 ^ batch32[p.s32&0xFF]
	p.s31 = p.s31>>8 ^ batch31[p.s31&0xFF]
	p.s29 = p.s29>>8 ^ batch29[p.s29&0xFF]
	return out
}

// step advances all three LFSRs by one clock and returns the combined
// output bit, exactly as the hardware combiner XORs the register outputs.
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

// Bits returns the next n pseudo-random bits (0 <= n <= 64), most recently
// generated bit in the least-significant position.
func (p *PRNG) Bits(n int) uint64 {
	if n < 0 || n > 64 {
		panic("prng: Bits count out of range")
	}
	var v uint64
	// Most recently generated bit lands in the least-significant position,
	// so a batch of eight (output bit j = clock j) enters bit-reversed.
	for ; n >= 8; n -= 8 {
		v = v<<8 | uint64(bits.Reverse8(uint8(p.step8())))
	}
	for i := 0; i < n; i++ {
		v = v<<1 | uint64(p.step())
	}
	return v
}

// Uint64 returns the next 64 pseudo-random bits.
func (p *PRNG) Uint64() uint64 { return p.Bits(64) }

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0. Rejection sampling removes modulo bias.
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	if n&(n-1) == 0 { // power of two: mask is exact
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
