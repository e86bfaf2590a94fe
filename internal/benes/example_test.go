package benes_test

import (
	"fmt"

	"repro/internal/benes"
)

// The paper's reference design: an 8-wide Benes network needs 20 control
// bits to drive the permutation of the index bits.
func ExampleNetwork_Switches() {
	n := benes.MustNew(8)
	fmt.Println(n.Switches())
	// Output: 20
}

// Any control word — including ones derived from a random seed, as in
// Random Modulo — yields a bijection on the index bits: two distinct
// indices can never collide.
func ExampleNetwork_Wire() {
	n := benes.MustNew(7) // the 128-set L1 of the paper
	const arbitraryCtrl = 0x5A5A
	var w benes.Wires
	n.Wire(arbitraryCtrl, &w)
	a := w.Permute(0x01)
	b := w.Permute(0x02)
	fmt.Println(a != b)
	// Output: true
}
