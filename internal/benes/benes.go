// Package benes implements Benes/Waksman permutation networks, the hardware
// structure at the heart of the Random Modulo (RM) cache placement.
//
// RM randomizes the cache set index by pushing the index bits through a
// Benes network whose switch control bits are derived from the per-run
// random seed combined with the upper address bits (paper, Section 3.2 and
// Figure 3). Two properties of the network matter:
//
//  1. Any control-bit assignment realizes a *bijection* on the wires: every
//     2x2 switch either passes or crosses, so distinct inputs can never
//     merge. This is what guarantees that two addresses in the same cache
//     segment are never mapped to the same set, for every seed.
//  2. The network is *rearrangeable*: with the right control bits it can
//     realize any permutation of its wires, so the population of reachable
//     cache layouts is rich enough for MBPTA representativeness. RM never
//     routes a permutation (it only applies seed-derived control words), so
//     the looping router that checks this property lives with the tests.
//
// The implementation supports arbitrary widths (not only powers of two) via
// the arbitrary-size Waksman construction, because real index widths such
// as 7 bits (128-set caches, as in the LEON3 L1 of the paper) are not
// powers of two. For width 8 the network has exactly 20 switches, matching
// the "20 bits are required to drive the permutation" figure in the paper.
//
// Hardware sets the switches once and then routes every index through
// them. The software does the same: Wire walks the switches once for a
// control word and records where each input wire ends up, as small lookup
// tables (Wires); Wires.Permute then moves a whole bundle with one lookup
// per 4-bit chunk. The switch-by-switch walk over a bundle survives in the
// tests as the oracle the tables are checked against.
package benes

import "fmt"

// Switch identifies one 2x2 crossbar element by the two wire positions it
// connects. Switches are stored in topological (evaluation) order.
type Switch struct {
	A, B int
}

// Network is a Benes/Waksman permutation network over width wires.
// Networks are immutable after construction and safe for concurrent use.
type Network struct {
	width    int
	switches []Switch
}

// New constructs a permutation network of the given width (>= 1).
func New(width int) (*Network, error) {
	if width < 1 {
		return nil, fmt.Errorf("benes: width %d out of range", width)
	}
	n := &Network{width: width}
	n.build(0, width)
	return n, nil
}

// MustNew is New for widths known to be valid at compile time.
func MustNew(width int) *Network {
	n, err := New(width)
	if err != nil {
		panic(err)
	}
	return n
}

// build appends the switches for the sub-network spanning wire positions
// [base, base+size) in evaluation order: input column, recursive lower and
// upper halves, output column.
//
// The input column pairs positions (base+i, base+h+i) where h = size/2; the
// value that stays in the lower half enters sub-network A, the one in the
// upper half enters sub-network B. For odd sizes the last wire is unpaired
// and flows directly into B, which has the extra capacity.
func (n *Network) build(base, size int) {
	switch {
	case size <= 1:
		return
	case size == 2:
		n.switches = append(n.switches, Switch{base, base + 1})
		return
	}
	h := size / 2
	for i := 0; i < h; i++ {
		n.switches = append(n.switches, Switch{base + i, base + h + i})
	}
	n.build(base, h)        // sub-network A: lower h wires
	n.build(base+h, size-h) // sub-network B: upper size-h wires
	for i := 0; i < h; i++ {
		n.switches = append(n.switches, Switch{base + i, base + h + i})
	}
}

// Switches returns the number of 2x2 switches, which equals the number of
// control bits. For width 8 this is 20, as quoted in the paper.
func (n *Network) Switches() int { return len(n.switches) }

// MaxWiresWidth is the widest network Wire can tabulate. It covers every
// network whose control word fits 64 bits (width 18 has 62 switches,
// width 19 has 66) with a chunk to spare.
const MaxWiresWidth = 20

// Wires is a network wired for one control word, in table form: bit i of
// a bundle travels on wire i, and the tables send each 4-bit chunk of the
// input straight to its output positions. Filling them costs one pass over
// the switches plus 16 entries per chunk, after which every bundle
// permutes in five independent lookups. RM rewires once per cache segment
// and maps all of that segment's lines through the same tables.
type Wires struct {
	t [MaxWiresWidth / 4][16]uint32
}

// Wire fills w with the network under ctrl, bit i of ctrl driving switch
// i (1 = cross, 0 = pass; switches past bit 63 pass). It panics if the
// network is wider than MaxWiresWidth.
//
//rm:hotpath
func (n *Network) Wire(ctrl uint64, w *Wires) {
	if n.width > MaxWiresWidth {
		tooWide(n.width)
	}
	// src[o] is the input wire that ends on output wire o: start from the
	// identity and apply every crossing switch as a branch-free swap.
	var src [32]uint8
	for i := 0; i < n.width; i++ {
		src[i] = uint8(i)
	}
	for _, sw := range n.switches {
		d := (src[sw.A&31] ^ src[sw.B&31]) & -uint8(ctrl&1)
		src[sw.A&31] ^= d
		src[sw.B&31] ^= d
		ctrl >>= 1
	}
	// one[i] is the output bit input wire i ends on.
	var one [32]uint32
	for o := 0; o < n.width; o++ {
		one[src[o]&31] = 1 << uint(o)
	}
	// A chunk value sends each of its bits where that bit alone goes.
	// Wires past the width are zero in one, so a short top chunk fills
	// all 16 entries too, and entry 0 of every chunk is 0: the chunks past
	// the width add nothing to Permute.
	for c := 0; 4*c < n.width; c++ {
		b := one[4*c : 4*c+4]
		l1, l2, l3 := b[0], b[1], b[0]|b[1]
		t := &w.t[c]
		for j, h := range [4]uint32{0, b[2], b[3], b[2] | b[3]} {
			t[4*j&15], t[4*j+1&15], t[4*j+2&15], t[4*j+3&15] = h, h|l1, h|l2, h|l3
		}
	}
}

// tooWide is Wire's cold panic helper, kept off the annotated hot path.
//
//go:noinline
func tooWide(width int) {
	panic(fmt.Sprintf("benes: width %d exceeds MaxWiresWidth", width))
}

// Permute returns the bundle x (bit i on input wire i, no bits past the
// network's width) as it leaves the wired network. For every control word
// it is a bijection on the network's width-bit values, the hardware
// guarantee RM builds on.
func (w *Wires) Permute(x uint32) uint32 {
	return w.t[0][x&15] | w.t[1][x>>4&15] | w.t[2][x>>8&15] | w.t[3][x>>12&15] | w.t[4][x>>16&15]
}
