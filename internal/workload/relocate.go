package workload

import (
	"fmt"
	"math/bits"

	"repro/internal/trace"
)

// numFields counts the layout fields a trace address can move with:
// Code, Data, Table, Stack, Pool and the Scatter slots, in that order.
const numFields = 5 + ScatterSlots

// tagShift places the per-field tags of the anchor build far above any
// offset a kernel adds to a layout field, so the difference between the
// tagged and the base trace spells out each access's field set. Field f's
// tag is 1<<(tagShift+2f): the tags fill the even bits 38 to 62, so a
// field added two or three times sets an odd bit and fails the check.
const tagShift = 38

// fieldMask decodes how one access moved between the base and the tagged
// build into its field set (bit f for field f of Layout.fields); ok is
// false unless d is a sum of distinct tags.
func fieldMask(d uint64) (mask uint16, ok bool) {
	if d&(1<<tagShift-1|0xaaaa_aaaa_aaaa_aaaa) != 0 {
		return 0, false
	}
	for e := d >> tagShift; e != 0; e &= e - 1 {
		mask |= 1 << (bits.TrailingZeros64(e) / 2)
	}
	return mask, true
}

// fields returns pointers to the relocatable fields in tag order.
func (l *Layout) fields() (f [numFields]*uint64) {
	f[0], f[1], f[2], f[3], f[4] = &l.Code, &l.Data, &l.Table, &l.Stack, &l.Pool
	for k := range l.Scatter {
		f[5+k] = &l.Scatter[k]
	}
	return f
}

// RelocationError reports a workload whose trace breaks the Build
// contract, so its compiled form cannot be relocated between layouts.
type RelocationError struct {
	Workload string
	Reason   string
}

func (e *RelocationError) Error() string {
	return fmt.Sprintf("workload %s: trace does not relocate: %s", e.Workload, e.Reason)
}

// anchors is one stream's line table of a Relocatable: entry i is the
// byte address of a granule at the base layout and the set of layout
// fields (bit f for field f of Layout.fields) the granule moves with.
type anchors struct {
	addrs []uint64
	masks []uint16
}

// Relocatable is a workload compiled once at a base layout in a form that
// Relocate re-targets to any layout whose fields differ from the base by
// multiples of LineBytes, as every RandomizedLayoutFrom draw does. The
// high-water-mark baseline uses it to replay one program under many
// layouts without rebuilding and recompiling the trace per run.
//
// Line IDs are keyed by (field set, granule) per stream, with a granule of
// min(lineBytes, LineBytes) bytes: a granule never straddles a line and
// moves as one piece under any such layout, so objects that share a line
// at the base layout but separate later stay exact. Two IDs may name the
// same line address; replay keys on line addresses, so that is harmless
// (each ID keeps its own way hint, and a stale one costs one slow-path
// access), and hit elision counts the two IDs as two lines of their set,
// which can only keep more reads.
type Relocatable struct {
	ops        []trace.Op // folded, see trace.Op
	index      *trace.ReplayIndex
	accesses   int
	iref, dref anchors
	base       Layout
	lineBytes  int
	lineShift  uint
	granule    uint64
}

// Relocatable builds the workload at base and at a tagged copy of base,
// derives which layout fields each access moves with, and numbers each
// access's base granule and field set into per-stream anchor tables for
// lines of lineBytes (a power of two), in one trace.Numbering pass. A
// trace that breaks the Build contract fails with a *RelocationError.
func (w Workload) Relocatable(base Layout, lineBytes int) (*Relocatable, error) {
	if lineBytes < 1 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("workload: relocation needs a power-of-two line size, got %d", lineBytes)
	}
	tr := w.Build(base)
	tagged := base
	for f, p := range tagged.fields() {
		*p += 1 << (tagShift + 2*f)
	}
	tt := w.Build(tagged)
	bad := func(format string, args ...any) error {
		return &RelocationError{w.Name, fmt.Sprintf(format, args...)}
	}
	if len(tt) != len(tr) {
		return nil, bad("%d accesses at the base layout, %d at a shifted one", len(tr), len(tt))
	}
	r := &Relocatable{
		accesses:  len(tr),
		base:      base,
		lineBytes: lineBytes,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		granule:   uint64(min(lineBytes, LineBytes)),
	}
	n := trace.NewNumbering(len(tr))
	// Most accesses move like the one before them: decode only new moves.
	var moved uint64
	var mask uint16
	for i, a := range tr {
		b := tt[i]
		if b.Kind != a.Kind {
			return nil, bad("access %d has kind %v at the base layout, %v at a shifted one", i, a.Kind, b.Kind)
		}
		if d := b.Addr - a.Addr; d != moved {
			m, ok := fieldMask(d)
			if !ok {
				return nil, bad("access %d moved by %#x, not by a sum of distinct layout fields", i, d)
			}
			moved, mask = d, m
		}
		n.Add(a.Kind, a.Addr&^(r.granule-1), mask)
	}
	r.ops, r.index = n.Finish()
	r.iref.addrs, r.iref.masks = n.Lines(trace.Fetch)
	r.dref.addrs, r.dref.masks = n.Lines(trace.Load)
	return r, nil
}

// Len returns the number of accesses of the compiled trace.
func (r *Relocatable) Len() int { return r.accesses }

// Relocate returns the compiled trace of the workload at layout l: the
// shared ops and replay index plus fresh line tables, replaying exactly like
// trace.Compile(w.Build(l), lineBytes): every stream touches the same
// line sequence, though the ops may fold differently where two IDs share
// a line. It costs O(unique lines), not O(accesses). Each call returns a new *trace.Compiled, since replay
// caches per-Compiled index plans. Relocate panics if a field of l moved
// from the base by other than a multiple of the granule, which no
// RandomizedLayoutFrom draw does.
func (r *Relocatable) Relocate(l Layout) *trace.Compiled {
	var delta [numFields]uint64
	lf, bf := l.fields(), r.base.fields()
	for f := range delta {
		delta[f] = *lf[f] - *bf[f]
		if delta[f]&(r.granule-1) != 0 {
			panic(fmt.Sprintf("workload: layout field %d moved by %d bytes, not a multiple of %d", f, delta[f], r.granule))
		}
	}
	return &trace.Compiled{
		Ops:       r.ops,
		Index:     r.index,
		ILines:    r.lines(r.iref, &delta),
		DLines:    r.lines(r.dref, &delta),
		LineBytes: r.lineBytes,
		Accesses:  r.accesses,
	}
}

// lines relocates anchors in byte space (wrapping uint64, like the
// addresses Build emits) and only then cuts them into lines.
func (r *Relocatable) lines(refs anchors, delta *[numFields]uint64) []uint64 {
	out := make([]uint64, len(refs.addrs))
	for i, addr := range refs.addrs {
		for m := refs.masks[i]; m != 0; m &= m - 1 {
			addr += delta[bits.TrailingZeros16(m)]
		}
		out[i] = addr >> r.lineShift
	}
	return out
}
