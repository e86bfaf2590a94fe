package workload

import (
	"fmt"
	"math/bits"

	"repro/internal/trace"
)

// numFields counts the layout fields a trace address can move with:
// Code, Data, Table, Stack, Pool and the Scatter slots, in that order.
const numFields = 5 + ScatterSlots

// tagShift places the per-field tags far above any offset a kernel adds
// to a layout field, so an address's tag bits spell out its field set:
// those of a built-in kernel's address at the symbolic layout, or the
// difference between another workload's tagged and base traces. Field
// f's tag is 1<<(tagShift+2f): the tags fill the even bits 38 to 62, so
// a field added two or three times sets an odd bit and fails the check.
const tagShift = 38

// fieldMask decodes a sum of tags into its field set (bit f for field f
// of Layout.fields); ok is false unless d is a sum of distinct tags.
func fieldMask(d uint64) (mask uint16, ok bool) {
	if d&(1<<tagShift-1|0xaaaa_aaaa_aaaa_aaaa) != 0 {
		return 0, false
	}
	for e := d >> tagShift; e != 0; e &= e - 1 {
		mask |= 1 << (bits.TrailingZeros64(e) / 2)
	}
	return mask, true
}

// tagged returns l with field f moved by its tag, 1<<(tagShift+2f).
func (l Layout) tagged() Layout {
	for f, p := range l.fields() {
		*p += 1 << (tagShift + 2*f)
	}
	return l
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
// at the base layout but separate later stay exact. Where a layout would
// give two IDs of a stream one line (objects that meet there, or two
// granules of one line longer than LineBytes), Relocate rebuilds instead,
// so every Compiled it returns has distinct lines, as trace.Compile's do.
type Relocatable struct {
	ops        []trace.Op // folded, see trace.Op
	index      *trace.ReplayTables
	accesses   int
	iref, dref anchors
	base       Layout
	lineBytes  int
	lineShift  uint
	granule    uint64
	build      func(l Layout) trace.Trace // the workload's trace, for Relocate's rebuilds
}

// Relocatable derives which layout fields each access of the workload
// moves with and numbers each access's base granule and field set into
// per-stream anchor tables for lines of lineBytes (a power of two), in
// one trace.Numbering pass. A built-in workload's kernel body runs once,
// at the symbolic layout, and each address decodes into its field set
// and offset. Any other workload builds at base and at base.tagged(),
// and a trace that breaks the Build contract fails with a
// *RelocationError. Both ways give a built-in workload the same ops,
// replay tables and anchors.
func (w Workload) Relocatable(base Layout, lineBytes int) (*Relocatable, error) {
	if lineBytes < 1 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("workload: relocation needs a power-of-two line size, got %d", lineBytes)
	}
	r := &Relocatable{
		base:      base,
		lineBytes: lineBytes,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		granule:   uint64(min(lineBytes, LineBytes)),
		build:     w.Build,
	}
	var n *trace.Numbering
	var reason string
	if w.prog != nil {
		n, r.accesses, reason = w.prog.walk(base, r.granule)
		r.build = w.prog.build
	} else {
		n, r.accesses, reason = w.twoBuilds(base, r.granule)
	}
	if reason != "" {
		return nil, &RelocationError{w.Name, reason}
	}
	r.ops, r.index = n.Finish()
	r.iref.addrs, r.iref.masks = n.Lines(trace.Fetch)
	r.dref.addrs, r.dref.masks = n.Lines(trace.Load)
	return r, nil
}

// twoBuilds numbers the workload's base trace with the field sets read
// off the difference to its build at a tagged copy of base. It returns
// the access count, or why the two builds break the Build contract.
func (w Workload) twoBuilds(base Layout, granule uint64) (n *trace.Numbering, accesses int, reason string) {
	tr, tt := w.Build(base), w.Build(base.tagged())
	if len(tt) != len(tr) {
		return nil, 0, fmt.Sprintf("%d accesses at the base layout, %d at a shifted one", len(tr), len(tt))
	}
	n = trace.NewNumbering(len(tr))
	var sets fieldSets
	for i, a := range tr {
		b := tt[i]
		if b.Kind != a.Kind {
			return nil, 0, fmt.Sprintf("access %d has kind %v at the base layout, %v at a shifted one", i, a.Kind, b.Kind)
		}
		d := b.Addr - a.Addr
		fs := sets.slot(d)
		if fs.tags != d && !fs.fill(d, nil) {
			return nil, 0, fmt.Sprintf("access %d moved by %#x, not by a sum of distinct layout fields", i, d)
		}
		n.Add(a.Kind, a.Addr&^(granule-1), fs.mask)
	}
	return n, len(tr), ""
}

// fieldSets caches decoded tag bits by a hash of them: a kernel's
// accesses cycle through a handful of field sets (the code, each object,
// the stack), so nearly every access finds its set here. The zero entry
// is the empty set, correctly decoded.
type fieldSets [64]fieldSet

// fieldSet is one decoded set of tag bits: its field mask and the sum of
// a layout's fields in it.
type fieldSet struct {
	tags uint64
	mask uint16
	sum  uint64
}

// slot returns the entry tag bits t hash to: t's decoded set if its tags
// are t, otherwise the entry fill decodes t into.
func (c *fieldSets) slot(t uint64) *fieldSet {
	return &c[(t>>tagShift)*0x9e3779b97f4a7c15>>58]
}

// fill decodes tag bits t into fs, summing base's fields (tag order);
// a nil base sums nothing. It reports false if t is no sum of distinct
// tags.
func (fs *fieldSet) fill(t uint64, base *[numFields]uint64) bool {
	m, ok := fieldMask(t)
	if !ok {
		return false
	}
	*fs = fieldSet{tags: t, mask: m}
	for ; base != nil && m != 0; m &= m - 1 {
		fs.sum += base[bits.TrailingZeros16(m)]
	}
	return true
}

// symbolicBias lifts a symbolic-layout address so that an offset below
// its fields (the stack grows down from Stack) does not borrow from the
// tag bits: offsets in (-2^37, 2^37) decode exactly.
const symbolicBias = 1 << (tagShift - 1)

// walk is Relocatable's sink for a built-in kernel run at the symbolic
// layout, Layout{}.tagged(), in which every field is its tag. It splits
// each address into its field set and its layout-free offset, adds the
// base layout's fields back (wrapping, as Build does) and numbers the
// access's base granule.
type walk struct {
	n       *trace.Numbering
	base    [numFields]uint64 // the base layout's fields, in tag order
	granule uint64
	sets    fieldSets
	bad     uint64 // the first address whose tag bits are no field set
}

func (w *walk) add(a trace.Access) {
	d := a.Addr + symbolicBias
	t := d &^ (1<<tagShift - 1)
	fs := w.sets.slot(t)
	if fs.tags != t && !fs.fill(t, &w.base) {
		if w.bad == 0 {
			w.bad = a.Addr
		}
		return
	}
	addr := d&(1<<tagShift-1) - symbolicBias + fs.sum
	w.n.Add(a.Kind, addr&^(w.granule-1), fs.mask)
}

// walk runs the kernel body once at the symbolic layout and numbers its
// accesses for base. It returns the access count (p.accesses, which
// TestWalkMatchesTwoBuilds holds to the trace's length), or why an
// address is no offset plus distinct fields.
func (p *program) walk(base Layout, granule uint64) (n *trace.Numbering, accesses int, reason string) {
	w := &walk{n: trace.NewNumbering(p.accesses), granule: granule}
	for f, q := range base.fields() {
		w.base[f] = *q
	}
	k := newKernel(p.name, Layout{}.tagged())
	k.w = w
	p.body(k)
	if w.bad != 0 {
		return nil, 0, fmt.Sprintf("an access at the symbolic layout sits at %#x, not at an offset plus distinct layout fields", w.bad)
	}
	return w.n, p.accesses, ""
}

// Len returns the number of accesses of the compiled trace.
func (r *Relocatable) Len() int { return r.accesses }

// Relocate returns the compiled trace of the workload at layout l, equal
// to trace.Compile(w.Build(l), lineBytes): the shared ops and replay
// tables plus fresh line tables, in O(u log u) for u unique lines, not
// O(accesses). Where two IDs of a stream would share a line at l
// (trace.Compiled.Aliased), it returns that rebuild itself, which calls
// Build and has replay tables of its own. Each call returns a new
// *trace.Compiled, since replay caches per-Compiled index plans.
// Relocate panics if a field of l moved from the base by other than a
// multiple of the granule, which no RandomizedLayoutFrom draw does.
func (r *Relocatable) Relocate(l Layout) *trace.Compiled {
	var delta [numFields]uint64
	lf, bf := l.fields(), r.base.fields()
	for f := range delta {
		delta[f] = *lf[f] - *bf[f]
		if delta[f]&(r.granule-1) != 0 {
			panic(fmt.Sprintf("workload: layout field %d moved by %d bytes, not a multiple of %d", f, delta[f], r.granule))
		}
	}
	ct := &trace.Compiled{
		Ops:       r.ops,
		Index:     r.index,
		ILines:    r.lines(r.iref, &delta),
		DLines:    r.lines(r.dref, &delta),
		LineBytes: r.lineBytes,
		Accesses:  r.accesses,
	}
	if ct.Aliased() {
		var err error
		if ct, err = trace.Compile(r.build(l), r.lineBytes); err != nil {
			// Compile fails only on a line size Relocatable rejects, or
			// past 2^32 accesses.
			panic(err)
		}
	}
	return ct
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
