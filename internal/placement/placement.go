// Package placement implements cache set-placement functions, including
// the Random Modulo (RM) policy that is the contribution of the paper, the
// hash-based random placement (hRP) it improves upon, and the deterministic
// baselines (modulo and XOR-fold) it is compared against.
//
// A placement policy maps a cache-line address (the memory address with the
// line-offset bits already stripped) to a set index. Deterministic policies
// fix this mapping forever; MBPTA-compliant policies re-randomize it on
// every Reseed, which the platform invokes once per program run.
//
// Terminology from the paper: for a cache with S sets and L-byte lines, the
// *cache way size* is CWb = S*L bytes, and all addresses with the same
// value of floor(addr/CWb) belong to the same *cache segment*. RM's
// defining guarantee is that two addresses in the same segment that map to
// different sets under modulo also map to different sets under RM, for
// every seed.
package placement

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/benes"
	"repro/internal/prng"
)

// Policy maps cache-line addresses to set indices.
//
// Implementations are deterministic functions of (current seed, line
// address); Reseed installs a new seed. Policies are not safe for
// concurrent use; each cache instance owns its policy.
type Policy interface {
	// Index returns the set index for a cache-line address, in [0, sets)
	// for the set count the policy was built for.
	Index(line uint64) uint32
	// Reseed installs a fresh per-run random seed. Deterministic policies
	// ignore it.
	Reseed(seed uint64)
	// Randomized reports whether the mapping changes across seeds, i.e.
	// whether the policy is a candidate for MBPTA compliance.
	Randomized() bool
	// indexAll is IndexAll's body, Index over a slice of lines. IndexAll
	// calls it through this interface: asserting an optional interface
	// instead consults the runtime's per-site type cache, which now and
	// then allocates while it fills.
	indexAll(lines []uint64, out []uint32)
}

// Kind enumerates the built-in policies.
type Kind int

// Placement policy kinds.
const (
	Modulo  Kind = iota // conventional modulo indexing (deterministic)
	XORFold             // deterministic XOR-folded indexing (Gonzalez-style)
	HRP                 // hash-based random placement (Kosmidis et al.)
	RM                  // random modulo (this paper)
	RMRot               // rotation-only random modulo (ablation: S layouts/segment)
)

// String returns the report name of the kind.
func (k Kind) String() string {
	switch k {
	case Modulo:
		return "Modulo"
	case XORFold:
		return "XORFold"
	case HRP:
		return "hRP"
	case RM:
		return "RM"
	case RMRot:
		return "RM-rot"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds returns every built-in placement kind in declaration order --
// the single registry behind ParseKind, the CLIs and the service
// catalog.
func Kinds() []Kind { return []Kind{Modulo, XORFold, HRP, RM, RMRot} }

// Aliases returns the lower-case spellings ParseKind accepts for a kind
// (the canonical String() form lower-cased, plus the documented short
// aliases). Unknown kinds return nil.
func Aliases(k Kind) []string {
	switch k {
	case Modulo:
		return []string{"modulo"}
	case XORFold:
		return []string{"xorfold", "xor"}
	case HRP:
		return []string{"hrp"}
	case RM:
		return []string{"rm"}
	case RMRot:
		return []string{"rm-rot", "rmrot"}
	}
	return nil
}

// ParseKind parses a user-facing placement name (case-insensitive; the
// String() forms plus the Aliases), the shared flag parser of the rmsim
// and mbpta commands and of the campaign service codec.
func ParseKind(s string) (Kind, error) {
	ls := strings.ToLower(s)
	for _, k := range Kinds() {
		for _, a := range Aliases(k) {
			if ls == a {
				return k, nil
			}
		}
	}
	return 0, fmt.Errorf("unknown placement %q (want Modulo, XORFold, hRP, RM or RM-rot)", s)
}

// New constructs a policy of the given kind for a cache with sets sets.
// sets must be a power of two and at least 2.
func New(kind Kind, sets int) (Policy, error) {
	switch kind {
	case Modulo:
		return NewModulo(sets)
	case XORFold:
		return NewXORFold(sets)
	case HRP:
		return NewHRP(sets)
	case RM:
		return NewRM(sets)
	case RMRot:
		return NewRMRot(sets)
	default:
		return nil, fmt.Errorf("placement: unknown kind %d", int(kind))
	}
}

// indexBits validates sets and returns log2(sets).
func indexBits(sets int) (uint, error) {
	if sets < 2 || sets&(sets-1) != 0 {
		return 0, fmt.Errorf("placement: sets must be a power of two >= 2, got %d", sets)
	}
	return uint(bits.TrailingZeros(uint(sets))), nil
}

// IndexAll maps every line address in lines to its set index under the
// policy's current seed, writing the results into out (which must have
// the same length). Results are bit-identical to calling p.Index on each
// line in order; each policy's indexAll merely sheds the per-line
// interface dispatch. This is the campaign "index plan" primitive: each
// Reseed, one IndexAll per cache level over the trace's unique lines
// replaces per-access hashing for the whole run (see
// sim.Core.RunCompiled).
//
//rm:hotpath
func IndexAll(p Policy, lines []uint64, out []uint32) {
	if len(lines) != len(out) {
		indexAllMismatch(len(lines), len(out))
	}
	p.indexAll(lines, out)
}

// indexAllMismatch is IndexAll's cold panic helper: formatting stays off
// the annotated hot path so the escape-analysis gate sees no heap
// traffic in its span. noinline keeps the compiler from folding the
// Sprintf escape back into the caller's span.
//
//go:noinline
func indexAllMismatch(lines, out int) {
	panic(fmt.Sprintf("placement: IndexAll length mismatch: %d lines, %d out", lines, out))
}

// ---------------------------------------------------------------------------
// Modulo

// moduloPolicy is conventional power-of-two modulo placement.
type moduloPolicy struct {
	mask uint64
}

// NewModulo returns conventional modulo placement over sets sets.
func NewModulo(sets int) (Policy, error) {
	if _, err := indexBits(sets); err != nil {
		return nil, err
	}
	return &moduloPolicy{mask: uint64(sets - 1)}, nil
}

func (p *moduloPolicy) Index(line uint64) uint32 { return uint32(line & p.mask) }
func (p *moduloPolicy) Reseed(uint64)            {}
func (p *moduloPolicy) Randomized() bool         { return false }

// indexAll and its siblings below call Index on the concrete receiver:
// one hash body per policy stays the single source of truth, and the
// bulk entry point only sheds the per-line interface dispatch.
//
//rm:hotpath
func (p *moduloPolicy) indexAll(lines []uint64, out []uint32) {
	for i, line := range lines {
		out[i] = p.Index(line)
	}
}

// ---------------------------------------------------------------------------
// XORFold

// xorFoldPolicy is a deterministic hash placement in the family of
// XOR-based indexing functions (Gonzalez et al., ICS 1997): the set index
// is the XOR of consecutive index-width chunks of the line address. It
// breaks pathological strides but, being fixed, stays deterministic: a bad
// layout is bad on every run, which is why such designs are not
// MBPTA-compliant (paper, Section 5).
type xorFoldPolicy struct {
	idxBits uint
	mask    uint64
}

// NewXORFold returns deterministic XOR-folded placement over sets sets.
func NewXORFold(sets int) (Policy, error) {
	nb, err := indexBits(sets)
	if err != nil {
		return nil, err
	}
	return &xorFoldPolicy{idxBits: nb, mask: uint64(sets - 1)}, nil
}

func (p *xorFoldPolicy) Index(line uint64) uint32 {
	v := uint64(0)
	for x := line; x != 0; x >>= p.idxBits {
		v ^= x & p.mask
	}
	return uint32(v)
}

func (p *xorFoldPolicy) Reseed(uint64)    {}
func (p *xorFoldPolicy) Randomized() bool { return false }

//rm:hotpath
func (p *xorFoldPolicy) indexAll(lines []uint64, out []uint32) {
	for i, line := range lines {
		out[i] = p.Index(line)
	}
}

// ---------------------------------------------------------------------------
// hRP

// HashedAddressBits is the number of line-address bits fed to the hRP
// parametric hash in the reference design: 32-bit addresses minus the
// 5 offset bits (paper, Section 3.1).
const HashedAddressBits = 27

// hrpPolicy is hash-based random placement: a per-seed random affine map
// over GF(2) from the line-address bits to the index bits.
//
// The hardware design (paper Figure 2) builds the hash from seed-controlled
// rotate blocks feeding a cascade of 2-input XOR gates; for any fixed seed
// the resulting function is affine over GF(2) in the address bits. The
// simulator implements exactly that function class: on Reseed it draws a
// random bit-matrix row per index bit plus an affine constant, so index
// bit i is parity(line & row_i) ^ constant_i. This preserves the two
// properties the paper analyses: (i) each address is mapped to each set
// with homogeneous probability 1/S across seeds, and (ii) any pair of
// distinct addresses collides with probability ~1/S per seed -- including
// pairs inside the same cache segment, which is the weakness RM removes.
//
// The map being affine, the index is the XOR of the images of the
// address's 6-bit chunks: Reseed fills tab, chunk c's image of each of its
// 64 values (the constant folded into chunk 0's), and Index XORs five
// lookups, which cover HashedAddressBits.
type hrpPolicy struct {
	idxBits  uint
	addrMask uint64
	rows     []uint64 // one GF(2) row mask per index bit
	consts   uint32   // affine constant, one bit per index bit
	tab      [hrpChunks][64]uint32
}

// hrpChunks is the number of 6-bit chunks of the hashed address bits.
const hrpChunks = (HashedAddressBits + 5) / 6

// NewHRP returns hash-based random placement over sets sets, hashing the
// low HashedAddressBits bits of the line address. The policy must be
// Reseeded before first use; New installs seed 0 so the zero value is
// usable in tests.
func NewHRP(sets int) (Policy, error) {
	nb, err := indexBits(sets)
	if err != nil {
		return nil, err
	}
	p := &hrpPolicy{
		idxBits:  nb,
		addrMask: 1<<HashedAddressBits - 1,
		rows:     make([]uint64, nb),
	}
	p.Reseed(0)
	return p, nil
}

func (p *hrpPolicy) Reseed(seed uint64) {
	g := prng.New(seed ^ 0x68525021) // domain-separate from other seed users
	for i := range p.rows {
		// Draw until the row is non-zero so no index bit degenerates to a
		// constant; a zero row would make the placement ignore the address
		// in that bit, which the rotate/XOR netlist cannot do either.
		for {
			row := g.Bits(HashedAddressBits)
			if row != 0 {
				p.rows[i] = row
				break
			}
		}
	}
	p.consts = uint32(g.Bits(int(p.idxBits)))
	col := p.columns()
	// By linearity a chunk value's image is the XOR of its set bits'
	// images: that of its low three bits (l) XOR that of its high three
	// (h), each the XOR of up to three columns.
	for c := range p.tab {
		x := (*[6]uint32)(col[6*c : 6*c+6])
		var l0 uint32
		if c == 0 {
			l0 = p.consts
		}
		l1 := l0 ^ x[0]
		l2, l3 := l0^x[1], l1^x[1]
		l4, l5, l6, l7 := l0^x[2], l1^x[2], l2^x[2], l3^x[2]
		h3 := x[3] ^ x[4]
		t := &p.tab[c]
		for h, y := range [8]uint32{0, x[3], x[4], h3, x[5], x[3] ^ x[5], x[4] ^ x[5], h3 ^ x[5]} {
			u := (*[8]uint32)(t[8*h : 8*h+8])
			u[0], u[1], u[2], u[3] = l0^y, l1^y, l2^y, l3^y
			u[4], u[5], u[6], u[7] = l4^y, l5^y, l6^y, l7^y
		}
	}
}

// columns returns the image of each address bit b: index bit i set iff
// row_i has bit b. It transposes the rows eight at a time, one byte of
// a row at once: spread8 puts the byte's bit u in the low bit of byte u
// of a word, so acc[g][j] gathers in byte u bit 8j+u of rows 8g to 8g+7.
// An index bit past the 32 an entry holds is dropped.
func (p *hrpPolicy) columns() (col [6 * hrpChunks]uint32) {
	var acc [4][(HashedAddressBits + 7) / 8]uint64
	rows := p.rows[:min(len(p.rows), 32)]
	for i, row := range rows {
		a, sh := &acc[i>>3], uint(i&7)
		for j := range a {
			a[j] |= spread8(row>>(8*j)) << sh
		}
	}
	groups := acc[:(len(rows)+7)/8]
	for b := range col[:HashedAddressBits] {
		j, sh := b>>3, uint(8*(b&7))
		var v uint32
		for g, a := range groups {
			v |= uint32(a[j]>>sh&0xFF) << (8 * g)
		}
		col[b] = v
	}
	return col
}

// spread8 returns the low byte of x with its bit u moved to the low bit
// of byte u: the byte copied to every byte, each byte masked to its own
// bit, and a set bit carried up to bit 7 and shifted down.
func spread8(x uint64) uint64 {
	const ones = 0x0101010101010101
	return (x&0xFF*ones&0x8040201008040201 + 0x7F7F7F7F7F7F7F7F) >> 7 & ones
}

func (p *hrpPolicy) Index(line uint64) uint32 {
	a := line & p.addrMask
	t := &p.tab
	return t[0][a&63] ^ t[1][a>>6&63] ^ t[2][a>>12&63] ^ t[3][a>>18&63] ^ t[4][a>>24&63]
}

func (p *hrpPolicy) Randomized() bool { return true }

//rm:hotpath
func (p *hrpPolicy) indexAll(lines []uint64, out []uint32) {
	for i, line := range lines {
		out[i] = p.Index(line)
	}
}

// ---------------------------------------------------------------------------
// RM

// rmPolicy is Random Modulo placement (paper, Section 3.2 / Figure 3): the
// modulo index bits are pushed through a Benes permutation network whose
// control word is derived by XOR-combining the upper address bits with the
// per-run random seed. Addresses in the same cache segment share upper bits
// and therefore the permutation, so distinct modulo indices stay distinct:
// contiguous footprints that fit in one way never self-conflict, for any
// seed. Across segments the permutations differ, and across seeds every
// segment's permutation is re-drawn.
type rmPolicy struct {
	idxBits  uint
	idxMask  uint64
	net      *benes.Network
	ctrlBits uint
	ctrlMask uint64
	seedLow  uint64 // expanded seed material XORed into the control word
	seedTop  uint64 // the "uppermost seed bit(s)" concatenated with the upper address bits

	// The network wired for segment seg, the last one mapped (noSegment
	// after Reseed). Trace line tables list lines in first-touch order, so
	// lines of one segment arrive in runs and the network is rewired once
	// per run, not per line.
	seg   uint64
	wires benes.Wires
}

// NewRM returns Random Modulo placement over sets sets. The Benes network
// width equals the index width (7 for the paper's 128-set L1, for which the
// network has 15 switches; the paper's 8-bit illustration has 20).
func NewRM(sets int) (Policy, error) {
	nb, err := indexBits(sets)
	if err != nil {
		return nil, err
	}
	net, err := benes.New(int(nb))
	if err != nil {
		return nil, err
	}
	if net.Switches() > 64 {
		return nil, fmt.Errorf("placement: RM control word for %d sets exceeds 64 bits", sets)
	}
	p := &rmPolicy{
		idxBits:  nb,
		idxMask:  uint64(sets - 1),
		net:      net,
		ctrlBits: uint(net.Switches()),
		ctrlMask: 1<<uint(net.Switches()) - 1,
	}
	p.Reseed(0)
	return p, nil
}

func (p *rmPolicy) Reseed(seed uint64) {
	// Expand the architectural seed register into the two words the
	// reference design consumes: the bits XORed against the upper address
	// bits, and the bits concatenated alongside them (paper: "we
	// concatenate the 19 upper address bits with the uppermost bit of the
	// random seed and XOR them with the following 20 bits of the seed").
	g := prng.New(seed ^ 0x524D5021) // domain-separate from other seed users
	p.seedLow = g.Uint64()
	p.seedTop = g.Uint64()
	p.seg = noSegment
}

// noSegment is a segment no line has: a line has at least one index bit
// below its segment, so segments stay below 2^63.
const noSegment = ^uint64(0)

// control derives the Benes control word for a segment (the upper address
// bits above the index). A single-bit change in the segment flips at least
// one control bit, as the paper requires ("small changes in address upper
// bits lead to different index permutations").
//
//rm:hotpath
func (p *rmPolicy) control(segment uint64) uint64 {
	if p.ctrlBits == 0 {
		// A 2-set cache has a single index bit and nothing to permute:
		// RM degenerates to modulo.
		return 0
	}
	// Concatenate one seed bit above the segment bits, then fold to the
	// control width by XOR of ctrlBits-wide chunks, then XOR the seed.
	x := segment<<1 | (p.seedTop & 1)
	var folded uint64
	for ; x != 0; x >>= p.ctrlBits {
		folded ^= x & p.ctrlMask
	}
	return (folded ^ p.seedLow) & p.ctrlMask
}

// Index rewires the network when the line's segment differs from the last
// one mapped, then sends the line's modulo bits through it.
func (p *rmPolicy) Index(line uint64) uint32 {
	if seg := line >> p.idxBits; seg != p.seg {
		p.rewire(seg)
	}
	return p.wires.Permute(uint32(line & p.idxMask))
}

// rewire wires the network for segment seg.
//
//rm:hotpath
func (p *rmPolicy) rewire(seg uint64) {
	p.net.Wire(p.control(seg), &p.wires)
	p.seg = seg
}

func (p *rmPolicy) Randomized() bool { return true }

//rm:hotpath
func (p *rmPolicy) indexAll(lines []uint64, out []uint32) {
	for i, line := range lines {
		out[i] = p.Index(line)
	}
}

// ---------------------------------------------------------------------------
// RM-rot (ablation)

// rmRotPolicy is the rotation-only Random Modulo variant used as an
// ablation in the benchmark harness: instead of a Benes bit permutation it
// adds a seed- and segment-dependent offset to the modulo index (a
// circular rotation of the set array). It keeps RM's segment-injectivity
// guarantee -- the offset is constant within a segment, so distinct modulo
// indices stay distinct -- but reaches only S layouts per segment instead
// of the Benes network's factorially many, which weakens layout diversity
// across runs and therefore MBPTA representativeness.
type rmRotPolicy struct {
	idxBits uint
	idxMask uint64
	seedA   uint64
	seedB   uint64
}

// NewRMRot returns the rotation-only RM variant over sets sets.
func NewRMRot(sets int) (Policy, error) {
	nb, err := indexBits(sets)
	if err != nil {
		return nil, err
	}
	p := &rmRotPolicy{idxBits: nb, idxMask: uint64(sets - 1)}
	p.Reseed(0)
	return p, nil
}

func (p *rmRotPolicy) Reseed(seed uint64) {
	g := prng.New(seed ^ 0x524F5421)
	p.seedA = g.Uint64()
	p.seedB = g.Uint64() | 1 // odd multiplier: bijective mixing of segments
}

func (p *rmRotPolicy) Index(line uint64) uint32 {
	mod := line & p.idxMask
	seg := line >> p.idxBits
	// Offset derived from (segment, seed) via a multiply-xor mix; constant
	// per segment, near-uniform across seeds.
	m := (seg ^ p.seedA) * p.seedB
	off := (m >> 32) & p.idxMask
	return uint32((mod + off) & p.idxMask)
}

func (p *rmRotPolicy) Randomized() bool { return true }

//rm:hotpath
func (p *rmRotPolicy) indexAll(lines []uint64, out []uint32) {
	for i, line := range lines {
		out[i] = p.Index(line)
	}
}
