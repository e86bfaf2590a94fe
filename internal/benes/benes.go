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

// PermuteBits treats x as a bundle of width single-bit wires (bit i of x on
// wire i) and returns the permuted bundle. This is the RM fast path: the
// cache index enters as width bits and leaves rearranged according to the
// control word. The operation is a bijection on width-bit values for every
// ctrl, which is the hardware guarantee RM builds on.
func (n *Network) PermuteBits(ctrl uint64, x uint64) uint64 {
	for i, sw := range n.switches {
		if ctrl>>uint(i)&1 != 0 {
			a := x >> uint(sw.A) & 1
			b := x >> uint(sw.B) & 1
			if a != b {
				x ^= 1<<uint(sw.A) | 1<<uint(sw.B)
			}
		}
	}
	return x
}
