package placement

import (
	"math"
	"math/bits"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func allKinds() []Kind { return Kinds() }

// TestKindsRegistry pins the registry the parser, the CLIs and the
// service catalog derive from: every kind is listed, and every alias
// parses back to its kind.
func TestKindsRegistry(t *testing.T) {
	if got := Kinds(); len(got) != 5 {
		t.Fatalf("Kinds() = %v, want the 5 built-in kinds", got)
	}
	for _, k := range Kinds() {
		aliases := Aliases(k)
		if len(aliases) == 0 {
			t.Errorf("Aliases(%v) is empty", k)
		}
		found := false
		for _, a := range aliases {
			got, err := ParseKind(a)
			if err != nil || got != k {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", a, got, err, k)
			}
			if a == strings.ToLower(k.String()) {
				found = true
			}
		}
		if !found {
			t.Errorf("Aliases(%v) = %v misses the canonical lower-cased %q", k, aliases, strings.ToLower(k.String()))
		}
	}
	if Aliases(Kind(99)) != nil {
		t.Error("Aliases of an unknown kind is not nil")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Modulo: "Modulo", XORFold: "XORFold", HRP: "hRP", RM: "RM"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind %d String = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind String = %q", Kind(99).String())
	}
}

func TestNewRejectsBadSets(t *testing.T) {
	for _, k := range allKinds() {
		for _, sets := range []int{0, 1, 3, 100, -8} {
			if _, err := New(k, sets); err == nil {
				t.Errorf("%v: New with %d sets succeeded", k, sets)
			}
		}
	}
	if _, err := New(Kind(42), 128); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestIndexInRangeAllPolicies(t *testing.T) {
	for _, k := range allKinds() {
		for _, sets := range []int{2, 64, 128, 1024} {
			p, err := New(k, sets)
			if err != nil {
				t.Fatalf("%v/%d: %v", k, sets, err)
			}
			g := prng.New(uint64(sets))
			for seedIdx := 0; seedIdx < 4; seedIdx++ {
				p.Reseed(g.Uint64())
				for i := 0; i < 2000; i++ {
					line := g.Uint64() >> 5
					if idx := p.Index(line); int(idx) >= sets {
						t.Fatalf("%v/%d: index %d out of range for line %#x", k, sets, idx, line)
					}
				}
			}
		}
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	// Fundamental MBPTA requirement: within a run (fixed seed) the mapping
	// is a pure function of the address.
	for _, k := range allKinds() {
		p, err := New(k, 128)
		if err != nil {
			t.Fatal(err)
		}
		q, err := New(k, 128)
		if err != nil {
			t.Fatal(err)
		}
		p.Reseed(777)
		q.Reseed(777)
		g := prng.New(3)
		for i := 0; i < 5000; i++ {
			line := g.Uint64() >> 7
			if p.Index(line) != q.Index(line) {
				t.Fatalf("%v: same seed, different mapping for line %#x", k, line)
			}
		}
	}
}

func TestModuloMatchesMask(t *testing.T) {
	p, err := NewModulo(128)
	if err != nil {
		t.Fatal(err)
	}
	for line := uint64(0); line < 4096; line++ {
		if p.Index(line) != uint32(line%128) {
			t.Fatalf("modulo: line %d -> %d", line, p.Index(line))
		}
	}
}

func TestDeterministicPoliciesIgnoreSeed(t *testing.T) {
	for _, k := range []Kind{Modulo, XORFold} {
		p, err := New(k, 64)
		if err != nil {
			t.Fatal(err)
		}
		before := make([]uint32, 512)
		for i := range before {
			before[i] = p.Index(uint64(i) * 77)
		}
		p.Reseed(123456789)
		for i := range before {
			if p.Index(uint64(i)*77) != before[i] {
				t.Fatalf("%v: mapping changed after Reseed", k)
			}
		}
		if p.Randomized() {
			t.Errorf("%v: Randomized() = true", k)
		}
	}
}

func TestRandomPoliciesChangeAcrossSeeds(t *testing.T) {
	for _, k := range []Kind{HRP, RM} {
		p, err := New(k, 128)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Randomized() {
			t.Fatalf("%v: Randomized() = false", k)
		}
		// Over many seeds, a fixed address must visit more than one set.
		const line = 0x12345
		seen := make(map[uint32]bool)
		for seed := uint64(0); seed < 64; seed++ {
			p.Reseed(seed)
			seen[p.Index(line)] = true
		}
		if len(seen) < 8 {
			t.Errorf("%v: address visited only %d sets over 64 seeds", k, len(seen))
		}
	}
}

func TestXORFoldBreaksWayStride(t *testing.T) {
	// Addresses separated by exactly the way size (same modulo index) are
	// spread by XORFold: that is the point of XOR indexing.
	p, err := NewXORFold(128)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]bool)
	for i := uint64(0); i < 64; i++ {
		seen[p.Index(i*128)] = true // stride of one way
	}
	if len(seen) < 16 {
		t.Fatalf("XORFold spread way-strided lines over only %d sets", len(seen))
	}
}

// --- hRP behaviour --------------------------------------------------------

func TestHRPUniformAcrossSeeds(t *testing.T) {
	// Paper 3.1: "hRP maps addresses to sets with homogeneous probabilities
	// so that an address is mapped to a particular set with probability
	// 1/S". Chi-square over 8000 seeds for one address, 128 sets.
	p, err := NewHRP(128)
	if err != nil {
		t.Fatal(err)
	}
	const line = 0xABCDE
	const draws = 8000
	counts := make([]int, 128)
	for seed := 0; seed < draws; seed++ {
		p.Reseed(prng.Derive(42, seed))
		counts[p.Index(line)]++
	}
	expected := float64(draws) / 128
	chi := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	// 127 dof: mean 127, sd ~16; accept within 6 sigma.
	if chi > 127+6*16 {
		t.Fatalf("hRP per-address set distribution not uniform: chi2 = %.1f", chi)
	}
}

func TestHRPPairCollisionProbability(t *testing.T) {
	// Paper 3.1: even contiguous lines collide under hRP with probability
	// ~1/S per seed. Estimate over seeds for an adjacent pair.
	p, err := NewHRP(128)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 20000
	coll := 0
	for seed := 0; seed < draws; seed++ {
		p.Reseed(prng.Derive(7, seed))
		if p.Index(1000) == p.Index(1001) {
			coll++
		}
	}
	got := float64(coll) / draws
	want := 1.0 / 128
	// Standard error ~ sqrt(p(1-p)/n) ~ 0.00062; accept within 5 sigma.
	if math.Abs(got-want) > 5*math.Sqrt(want*(1-want)/draws) {
		t.Fatalf("hRP same-segment collision probability %.5f, want ~%.5f", got, want)
	}
}

func TestHRPAffineOverGF2(t *testing.T) {
	// For a fixed seed the hash must be affine: h(a)^h(b)^h(c)^h(d) == 0
	// whenever a^b^c^d == 0. This is the function class of the rotate/XOR
	// netlist in Figure 2.
	p, err := NewHRP(256)
	if err != nil {
		t.Fatal(err)
	}
	p.Reseed(99)
	g := prng.New(5)
	for i := 0; i < 2000; i++ {
		a := g.Bits(HashedAddressBits)
		b := g.Bits(HashedAddressBits)
		c := g.Bits(HashedAddressBits)
		d := a ^ b ^ c
		x := p.Index(a) ^ p.Index(b) ^ p.Index(c) ^ p.Index(d)
		if x != 0 {
			t.Fatalf("hRP not affine: residual %#x", x)
		}
	}
}

// --- RM behaviour ----------------------------------------------------------

func TestRMSegmentInjectivityProperty(t *testing.T) {
	// THE property of the paper (Section 3.2):
	//   setmod(A) != setmod(B) and same segment  =>  setrm(A) != setrm(B)
	// for every seed.
	p, err := NewRM(128)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64, segment uint32, ia, ib uint8) bool {
		p.Reseed(seed)
		a := uint64(segment)<<7 | uint64(ia&0x7F)
		b := uint64(segment)<<7 | uint64(ib&0x7F)
		if a == b {
			return p.Index(a) == p.Index(b)
		}
		return p.Index(a) != p.Index(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestRMFullSegmentCoversAllSets(t *testing.T) {
	// A full segment (one line per modulo index) must occupy every set
	// exactly once under RM: spatial locality is fully preserved.
	for _, sets := range []int{64, 128, 1024} {
		p, err := NewRM(sets)
		if err != nil {
			t.Fatal(err)
		}
		nb := uint(bits.TrailingZeros(uint(sets)))
		for seed := uint64(0); seed < 16; seed++ {
			p.Reseed(seed)
			seen := make([]bool, sets)
			segment := uint64(0x5A5A)
			for i := 0; i < sets; i++ {
				idx := p.Index(segment<<nb | uint64(i))
				if seen[idx] {
					t.Fatalf("sets=%d seed=%d: set %d hit twice within one segment", sets, seed, idx)
				}
				seen[idx] = true
			}
		}
	}
}

func TestRMPreservesIndexPopcount(t *testing.T) {
	// RM permutes index *bits*, so the popcount of the modulo index is
	// invariant. This is a structural property of the design (and the
	// reason the paper notes the per-set probability need not be
	// homogeneous).
	p, err := NewRM(128)
	if err != nil {
		t.Fatal(err)
	}
	g := prng.New(8)
	for i := 0; i < 3000; i++ {
		line := g.Uint64() >> 3
		p.Reseed(g.Uint64())
		mod := int(line & 127)
		idx := int(p.Index(line))
		if bits.OnesCount(uint(mod)) != bits.OnesCount(uint(idx)) {
			t.Fatalf("popcount changed: mod %07b -> rm %07b", mod, idx)
		}
	}
}

func TestRMDifferentSegmentsDifferentPermutations(t *testing.T) {
	// Permutations must vary across segments for a fixed seed, otherwise
	// RM would be a single global bit-permutation with far fewer layouts.
	p, err := NewRM(128)
	if err != nil {
		t.Fatal(err)
	}
	p.Reseed(2718)
	distinct := 0
	const segments = 64
	base := make([]uint32, 128)
	for i := range base {
		base[i] = p.Index(uint64(i)) // segment 0
	}
	for s := uint64(1); s < segments; s++ {
		same := true
		for i := 0; i < 128; i++ {
			if p.Index(s<<7|uint64(i)) != base[i] {
				same = false
				break
			}
		}
		if !same {
			distinct++
		}
	}
	if distinct < segments/2 {
		t.Fatalf("only %d/%d segments got a permutation distinct from segment 0", distinct, segments-1)
	}
}

func TestRMSeedChangesLayout(t *testing.T) {
	p, err := NewRM(128)
	if err != nil {
		t.Fatal(err)
	}
	layout := func(seed uint64) []uint32 {
		p.Reseed(seed)
		out := make([]uint32, 256)
		for i := range out {
			out[i] = p.Index(uint64(i))
		}
		return out
	}
	a := layout(1)
	changed := 0
	for seed := uint64(2); seed < 34; seed++ {
		b := layout(seed)
		for i := range a {
			if a[i] != b[i] {
				changed++
				break
			}
		}
	}
	if changed < 30 {
		t.Fatalf("layout identical to seed 1 for %d of 32 seeds", 32-changed)
	}
}

func TestRMUpperBitChangeChangesControl(t *testing.T) {
	// Paper: "small changes in address upper bits lead to different index
	// permutations". Flipping any single upper bit must change the mapping
	// of at least one index for most seeds.
	p, err := NewRM(128)
	if err != nil {
		t.Fatal(err)
	}
	changedSeeds := 0
	for seed := uint64(0); seed < 32; seed++ {
		p.Reseed(seed)
		base := uint64(0x40) << 7
		flip := base ^ 1<<7 // flip lowest upper bit
		diff := false
		for i := uint64(0); i < 128; i++ {
			if p.Index(base|i) != p.Index(flip|i) {
				diff = true
				break
			}
		}
		if diff {
			changedSeeds++
		}
	}
	if changedSeeds < 24 {
		t.Fatalf("upper-bit flip changed the permutation for only %d/32 seeds", changedSeeds)
	}
}

func TestRMRotSegmentInjectivity(t *testing.T) {
	// The rotation-only ablation keeps RM's guarantee: same segment,
	// different modulo index => different set, for every seed.
	p, err := NewRMRot(128)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64, segment uint32, ia, ib uint8) bool {
		p.Reseed(seed)
		a := uint64(segment)<<7 | uint64(ia&0x7F)
		b := uint64(segment)<<7 | uint64(ib&0x7F)
		if a == b {
			return p.Index(a) == p.Index(b)
		}
		return p.Index(a) != p.Index(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestRMRotReachesOnlyRotations(t *testing.T) {
	// Structural weakness vs full RM: for a fixed segment, the layouts
	// reachable across seeds are exactly the S cyclic rotations of the
	// modulo layout -- every index shifts by the same offset.
	p, err := NewRMRot(128)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 50; seed++ {
		p.Reseed(seed)
		off := (int(p.Index(0)) - 0 + 128) % 128
		for i := uint64(1); i < 128; i++ {
			want := (int(i) + off) % 128
			if int(p.Index(i)) != want {
				t.Fatalf("seed %d: index %d -> %d, expected rotation by %d", seed, i, p.Index(i), off)
			}
		}
	}
}

func TestRMRotUniformAcrossSeeds(t *testing.T) {
	p, err := NewRMRot(128)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 128)
	const draws = 6400
	for seed := 0; seed < draws; seed++ {
		p.Reseed(prng.Derive(3, seed))
		counts[p.Index(0x51234)]++
	}
	expected := float64(draws) / 128
	chi := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	if chi > 127+6*16 {
		t.Fatalf("RM-rot offset distribution not uniform: chi2 = %.1f", chi)
	}
}

// TestControlBitsAccessor pins the width of the control word RM folds
// each segment into: one bit per Benes switch.
func TestControlBitsAccessor(t *testing.T) {
	r, _ := NewRM(128) // 7 index bits -> 15 switches
	if got := r.(*rmPolicy).ctrlBits; got != 15 {
		t.Fatalf("RM(128 sets) control bits = %d, want 15", got)
	}
	r256, _ := NewRM(256) // 8 index bits -> 20 switches (paper's quote)
	if got := r256.(*rmPolicy).ctrlBits; got != 20 {
		t.Fatalf("RM(256 sets) control bits = %d, want 20", got)
	}
}

func TestQuickHRPAndRMIndexStability(t *testing.T) {
	// Property: Index is a pure function between Reseeds, for both
	// randomized policies.
	h, _ := NewHRP(128)
	r, _ := NewRM(128)
	f := func(seed, line uint64) bool {
		h.Reseed(seed)
		r.Reseed(seed)
		hi, ri := h.Index(line), r.Index(line)
		for i := 0; i < 3; i++ {
			if h.Index(line) != hi || r.Index(line) != ri {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParseKind(t *testing.T) {
	cases := map[string]Kind{
		"modulo": Modulo, "Modulo": Modulo, "xor": XORFold, "XORFold": XORFold,
		"hRP": HRP, "HRP": HRP, "rm": RM, "RM-rot": RMRot, "rmrot": RMRot,
	}
	for in, want := range cases {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseKind("random"); err == nil {
		t.Error("unknown placement name accepted")
	}
}

// TestKindRoundTrip: ParseKind(k.String()) succeeds and returns k, for
// every Kind -- the contract the wire codec and the CLIs lean on.
func TestKindRoundTrip(t *testing.T) {
	for _, k := range allKinds() {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Errorf("ParseKind(%q): %v", k.String(), err)
			continue
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
}

// TestParseKindCaseInsensitive is a property test: ParseKind accepts any
// casing of every documented name and alias, always yielding the same
// Kind. The case mask drives which letters are upper-cased.
func TestParseKindCaseInsensitive(t *testing.T) {
	names := map[string]Kind{
		"modulo":  Modulo,
		"xorfold": XORFold, "xor": XORFold,
		"hrp":    HRP,
		"rm":     RM,
		"rm-rot": RMRot, "rmrot": RMRot,
	}
	// Canonical String() spellings are documented names too.
	for _, k := range allKinds() {
		names[strings.ToLower(k.String())] = k
	}
	recase := func(s string, mask uint64) string {
		b := []byte(strings.ToLower(s))
		for i := range b {
			if mask&(1<<uint(i%64)) != 0 && b[i] >= 'a' && b[i] <= 'z' {
				b[i] -= 'a' - 'A'
			}
		}
		return string(b)
	}
	f := func(mask uint64) bool {
		for name, want := range names {
			got, err := ParseKind(recase(name, mask))
			if err != nil || got != want {
				t.Logf("ParseKind(%q) = %v, %v; want %v", recase(name, mask), got, err, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
