package benes

import (
	"errors"
	"fmt"
)

// The oracles below check build's wiring against the two properties the
// package doc names: Route realizes any permutation (rearrangeability),
// CheckBijection confirms a control word never merges wires. PermuteBits
// is the switch-by-switch reference the production Wires tables match.

// Permute applies the network to the wire values in, using bit i of ctrl to
// drive switch i (1 = cross, 0 = pass). The result is written to out, which
// must have length Width; in is not modified. Permute never merges wires:
// out is a permutation of in for every ctrl value.
func (n *Network) Permute(ctrl uint64, in, out []int) {
	if len(in) != n.width || len(out) != n.width {
		panic("benes: Permute slice length mismatch")
	}
	copy(out, in)
	for i, sw := range n.switches {
		if ctrl>>uint(i)&1 != 0 {
			out[sw.A], out[sw.B] = out[sw.B], out[sw.A]
		}
	}
}

// PermuteBits treats x as a bundle of width single-bit wires (bit i of x on
// wire i) and returns the permuted bundle, walking the switches one at a
// time. It is the oracle for Wire and Wires.Permute.
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

// ErrNotPermutation reports that the slice given to Route is not a
// permutation of 0..Width-1.
var ErrNotPermutation = errors.New("benes: not a permutation")

// Route computes a control word that makes the network realize perm, in the
// sense that output wire o carries the value presented on input wire
// perm[o]. It returns ErrNotPermutation if perm is malformed. Networks with
// more than 64 switches cannot be routed into a 64-bit control word and
// return an error.
//
// Routing uses the classic looping algorithm, expressed as a two-coloring
// of path terminals: each input/output pair sharing a switch must split
// across the two sub-networks, and each input must ride the same
// sub-network as the output it feeds.
func (n *Network) Route(perm []int) (uint64, error) {
	if len(perm) != n.width {
		return 0, ErrNotPermutation
	}
	seen := make([]bool, n.width)
	for _, v := range perm {
		if v < 0 || v >= n.width || seen[v] {
			return 0, ErrNotPermutation
		}
		seen[v] = true
	}
	if n.Switches() > 64 {
		return 0, fmt.Errorf("benes: %d switches exceed 64-bit control word", n.Switches())
	}
	var ctrl uint64
	next := 0 // next switch index in evaluation order
	p := make([]int, len(perm))
	copy(p, perm)
	if err := routeRec(len(p), p, &ctrl, &next); err != nil {
		return 0, err
	}
	if next != n.Switches() {
		return 0, fmt.Errorf("benes: router consumed %d switches, network has %d", next, n.Switches())
	}
	return ctrl, nil
}

const (
	subUnset = int8(-1)
	subA     = int8(0)
	subB     = int8(1)
)

// routeRec routes perm (output o carries input perm[o], both region-local)
// through the sub-network of the given size, consuming switch indices in
// evaluation order and setting bits in ctrl.
func routeRec(size int, perm []int, ctrl *uint64, next *int) error {
	switch {
	case size <= 1:
		return nil
	case size == 2:
		idx := *next
		*next++
		if perm[0] == 1 {
			*ctrl |= 1 << uint(idx)
		}
		return nil
	}
	h := size / 2
	sizeB := size - h
	inBase := *next
	*next += h // reserve input column switch indices

	// Terminal coloring. Node k in [0,size) is input wire k; node size+k is
	// output wire k. Color subA or subB says which sub-network that
	// terminal's path traverses.
	color := make([]int8, 2*size)
	for i := range color {
		color[i] = subUnset
	}
	inv := make([]int, size) // inv[input] = output fed by that input
	for o, i := range perm {
		inv[i] = o
	}

	// Constraint edges:
	//   eq:  input perm[o] <-> output o            (same path)
	//   neq: input i <-> input i+h   (i < h)       (share an input switch)
	//   neq: output o <-> output o+h (o < h)       (share an output switch)
	// partner returns the switch-mate of a terminal, or -1 if unpaired
	// (the hardwired last wire of an odd-size network).
	partner := func(w int) int {
		if size%2 == 1 && w == size-1 {
			return -1
		}
		if w < h {
			return w + h
		}
		return w - h
	}

	// propagate colors via BFS over the constraint graph.
	var queue []int
	setColor := func(node int, c int8) error {
		if color[node] == c {
			return nil
		}
		if color[node] != subUnset {
			return fmt.Errorf("benes: routing contradiction at terminal %d", node)
		}
		color[node] = c
		queue = append(queue, node)
		return nil
	}
	drain := func() error {
		for len(queue) > 0 {
			node := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			c := color[node]
			if node < size { // input terminal
				i := node
				if err := setColor(size+inv[i], c); err != nil { // eq edge
					return err
				}
				if ip := partner(i); ip >= 0 {
					if err := setColor(ip, 1-c); err != nil { // neq edge
						return err
					}
				}
			} else { // output terminal
				o := node - size
				if err := setColor(perm[o], c); err != nil { // eq edge
					return err
				}
				if op := partner(o); op >= 0 {
					if err := setColor(size+op, 1-c); err != nil { // neq edge
						return err
					}
				}
			}
		}
		return nil
	}

	// Hardwired constraints for odd sizes: the unpaired wire is in B.
	if size%2 == 1 {
		if err := setColor(size-1, subB); err != nil {
			return err
		}
		if err := setColor(size+size-1, subB); err != nil {
			return err
		}
		if err := drain(); err != nil {
			return err
		}
	}
	// Remaining components have a free choice; pick sub-network A.
	for node := 0; node < 2*size; node++ {
		if color[node] == subUnset {
			if err := setColor(node, subA); err != nil {
				return err
			}
			if err := drain(); err != nil {
				return err
			}
		}
	}

	// Input column control bits: switch i pairs inputs (i, i+h); control 0
	// sends input i to A_i and input i+h to B_i, control 1 swaps.
	for i := 0; i < h; i++ {
		if color[i] == subB {
			*ctrl |= 1 << uint(inBase+i)
		}
	}

	// Local wire index inside a sub-network: input/output w rides wire
	// (w mod h), except the hardwired odd wire which rides B's extra wire h.
	local := func(w int) int {
		if size%2 == 1 && w == size-1 {
			return h // == sizeB-1
		}
		if w < h {
			return w
		}
		return w - h
	}
	permA := make([]int, h)
	permB := make([]int, sizeB)
	for o := 0; o < size; o++ {
		i := perm[o]
		if color[size+o] == subA {
			permA[local(o)] = local(i)
		} else {
			permB[local(o)] = local(i)
		}
	}

	if err := routeRec(h, permA, ctrl, next); err != nil {
		return err
	}
	if err := routeRec(sizeB, permB, ctrl, next); err != nil {
		return err
	}

	// Output column: switch o pairs outputs (o, o+h); control 0 connects
	// A_o to output o, control 1 connects B_o to output o.
	outBase := *next
	*next += h
	for o := 0; o < h; o++ {
		if color[size+o] == subB {
			*ctrl |= 1 << uint(outBase+o)
		}
	}
	return nil
}

// CheckBijection exhaustively verifies that ctrl induces a bijection on
// Width-bit values for small widths (Width <= 20). Production relies on
// the structural guarantee instead.
func (n *Network) CheckBijection(ctrl uint64) error {
	if n.width > 20 {
		return fmt.Errorf("benes: CheckBijection limited to width <= 20, have %d", n.width)
	}
	size := 1 << uint(n.width)
	seen := make([]bool, size)
	for x := 0; x < size; x++ {
		y := n.PermuteBits(ctrl, uint64(x))
		if y >= uint64(size) {
			return fmt.Errorf("benes: output %d out of range for input %d", y, x)
		}
		if seen[y] {
			return fmt.Errorf("benes: control %#x merges inputs at output %d", ctrl, y)
		}
		seen[y] = true
	}
	return nil
}
