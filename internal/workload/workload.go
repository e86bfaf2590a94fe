// Package workload provides the benchmark programs of the paper's
// evaluation as address-trace generators: the synthetic vector kernel of
// Section 4 (8KB / 20KB / 160KB footprints traversed 50 times) and eleven
// EEMBC-Automotive-like kernels standing in for the proprietary EEMBC
// suite (a2time .. ttsprk).
//
// Each kernel is a deterministic program: given a memory Layout it always
// produces the same trace. This mirrors the paper's setup, where the same
// binary is run repeatedly and only the hardware placement seed changes.
// The deterministic baseline instead varies the Layout across runs
// (RandomizedLayout), modelling the memory-mapping variability that
// industrial measurement-based practice must chase: programs consist of
// several independently-placed objects (buffers, tables, stack, pools)
// whose relative cache alignment shifts with linking, integration order
// and stack depth, occasionally stacking more lines into a set than the
// cache has ways -- the cache risk patterns of the paper's introduction.
//
// The kernels are synthetic reconstructions, not EEMBC source: they
// reproduce the published structural character of each benchmark (hot-loop
// code footprints of a few KB, multiple KB-scale data objects, lookup
// tables, pointer chases, stack traffic) because those are the features
// cache placement reacts to.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/prng"
	"repro/internal/trace"
)

// LineBytes is the cache line size of the platform (32B in the paper).
const LineBytes = 32

// ScatterSlots is the number of independently-placed sub-objects a layout
// supports per region.
const ScatterSlots = 8

// Layout fixes the memory placement of the program's objects: the base
// address of each region plus the displacement of each sub-object within
// its region. Sub-objects are spaced far apart (so they never overlap) but
// their low address bits -- which decide cache alignment -- come from
// Scatter.
type Layout struct {
	Code  uint64 // program text
	Data  uint64 // data buffers
	Table uint64 // lookup tables
	Stack uint64 // stack frames (grows down from here)
	Pool  uint64 // heap pool (linked structures)
	// Scatter holds line-aligned displacements for sub-objects; entry k
	// displaces the k-th object of a region. This is where link/load-time
	// alignment variability lives.
	Scatter [ScatterSlots]uint64
}

// Obj returns the base address of the k-th sub-object of a region.
// Sub-objects are spaced 128KB apart so they are disjoint for any
// reasonable object size, while Scatter decides their cache alignment.
func (l Layout) Obj(region uint64, k int) uint64 {
	return region + uint64(k)*0x20000 + l.Scatter[k%ScatterSlots]
}

// DefaultLayout returns the fixed layout used for all randomized-placement
// campaigns: with MBPTA-compliant caches the layout is irrelevant by
// design, so any fixed one works (paper, Section 1: the end user "only
// needs to control the number of runs ... but not how program objects are
// allocated in memory").
func DefaultLayout() Layout {
	return Layout{
		Code:  0x0004_0000,
		Data:  0x0100_0000,
		Table: 0x0200_0000,
		Stack: 0x0300_8000,
		Pool:  0x0400_0000,
		Scatter: [ScatterSlots]uint64{
			0 * 1664, 1 * 1664, 2 * 1664, 3 * 1664,
			4 * 1664, 5 * 1664, 6 * 1664, 7 * 1664,
		},
	}
}

// RandomizedLayout draws a layout with line-granular random displacements
// (16KB windows for the region bases, way-sized windows for the
// sub-object scatter), modelling the memory-mapping variability that
// changes conflict patterns on deterministic caches: module placement,
// library and table alignment, stack depth. Used by the high-water-mark
// baseline of Figure 4(b).
func RandomizedLayout(g *prng.PRNG) Layout {
	return RandomizedLayoutFrom(BaselineLayout(), g)
}

// BaselineLayout is the base layout RandomizedLayout perturbs: the
// default layout with its deliberate scatter replaced, not compounded, so
// the draws reproduce the historical absolute displacements bit-for-bit.
func BaselineLayout() Layout {
	l := DefaultLayout()
	l.Scatter = [ScatterSlots]uint64{}
	return l
}

// RandomizedLayoutFrom draws the same displacement stream as
// RandomizedLayout but applies it to a caller-supplied base layout:
// region bases shift by 0..16KB-32 and each scatter slot gains a
// line-granular displacement on top of the base's. This is what
// a baseline campaign's optional Layout override perturbs, letting the baseline
// explore mapping variability around a specific link map instead of the
// default one. The result is a pure function of (base, the PRNG state),
// so campaigns built on it stay bit-identical for any worker count.
func RandomizedLayoutFrom(base Layout, g *prng.PRNG) Layout {
	d := func() uint64 { return uint64(g.Intn(512)) * LineBytes } // 0..16KB-32
	l := base
	l.Code += d()
	l.Data += d()
	l.Table += d()
	l.Stack += d()
	l.Pool += d()
	for i := range l.Scatter {
		l.Scatter[i] += d()
	}
	return l
}

// Workload is a benchmark program: a named, deterministic trace generator.
type Workload struct {
	Name        string
	Description string
	// Build returns the program's trace under layout l. The
	// high-water-mark baseline relies on two properties of it:
	//   - every address is a layout-independent offset plus each layout
	//     field (Code, Data, Table, Stack, Pool, Scatter[k]) at most once;
	//   - the trace's length, access kinds and order do not depend on l.
	// Relocatable reports a violation that shows at its tagged layout
	// (every field shifted by a distinct high bit, two bits apart) as a
	// *RelocationError; that catches a field used two or three times in
	// one address, though not four times or more.
	// EEMBC(), Synthetic and FromTrace (whose addresses use no field)
	// satisfy both.
	Build func(l Layout) trace.Trace
}

// FromTrace wraps an externally captured address trace (e.g. a valgrind
// lackey capture parsed by trace.ParseLackey) as a Workload. The trace is
// fixed: Build ignores the Layout, because the capture's addresses are
// the program's real placement. That makes MBPTA campaigns over it exact
// replays, while baseline (layout-randomizing) campaigns see no run-to-run
// variation — a captured trace cannot be relinked, so the HWM protocol
// degenerates to repetition and is not meaningful for these workloads.
func FromTrace(name, description string, tr trace.Trace) Workload {
	return Workload{
		Name:        name,
		Description: description,
		Build:       func(Layout) trace.Trace { return tr },
	}
}

// kernel carries the trace builder plus the program-internal pseudo-random
// state. The PRNG is seeded from the kernel name only: its draws are part
// of the program (input data, branch history), identical on every run.
type kernel struct {
	b   *trace.Builder
	l   Layout
	rng *prng.PRNG
	ops []trace.Access // per-iteration data-op scratch
}

func newKernel(name string, l Layout, sizeHint int) *kernel {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return &kernel{
		b:   trace.NewBuilder(sizeHint),
		l:   l,
		rng: prng.New(h),
	}
}

// Data-op emitters (queued, then interleaved with fetches by loopIter).

func (k *kernel) load(addr uint64) { k.ops = append(k.ops, trace.Access{Addr: addr, Kind: trace.Load}) }
func (k *kernel) store(addr uint64) {
	k.ops = append(k.ops, trace.Access{Addr: addr, Kind: trace.Store})
}

// stackFrame emits the entry/exit traffic of a small call frame.
func (k *kernel) stackFrame(words int) {
	for i := 0; i < words; i++ {
		k.store(k.l.Stack - uint64(4*i) - 4)
	}
	for i := 0; i < words; i++ {
		k.load(k.l.Stack - uint64(4*i) - 4)
	}
}

// loopIter emits one loop iteration: the codeLines-line loop body is
// fetched sequentially with the queued data operations interleaved evenly,
// approximating an in-order pipeline issuing one line's worth of
// instructions between data references. The scratch queue is consumed.
func (k *kernel) loopIter(codeOff uint64, codeLines int) {
	base := k.l.Code + codeOff
	n := len(k.ops)
	for j := 0; j < codeLines; j++ {
		k.b.Fetch(base + uint64(j*LineBytes))
		lo, hi := j*n/codeLines, (j+1)*n/codeLines
		for _, op := range k.ops[lo:hi] {
			k.b.Append(op)
		}
	}
	k.ops = k.ops[:0]
}

// initPhase stores through a buffer once, modelling program initialisation
// and giving the write path realistic work.
func (k *kernel) initPhase(base uint64, bytes int, codeOff uint64, codeLines int) {
	perIter := codeLines * 8 * 4 // bytes initialised per loop pass (8 words/line)
	for off := 0; off < bytes; off += perIter {
		for b := off; b < off+perIter && b < bytes; b += 4 {
			k.store(base + uint64(b))
		}
		k.loopIter(codeOff, codeLines)
	}
}

// Synthetic returns the paper's synthetic kernel: a vector of
// footprintBytes traversed sequentially (strideBytes between elements)
// sweeps times inside a small loop. Paper Section 4: footprints 8KB (fits
// in L1), 20KB (fits only in L2) and 160KB (exceeds the 128KB L2
// partition), 50 traversals, 4-byte elements.
func Synthetic(footprintBytes, sweeps, strideBytes int) Workload {
	name := fmt.Sprintf("synth%dk", footprintBytes/1024)
	return Workload{
		Name: name,
		Description: fmt.Sprintf("synthetic vector kernel: %d KB footprint, %d sweeps, stride %d",
			footprintBytes/1024, sweeps, strideBytes),
		Build: func(l Layout) trace.Trace {
			// The loop body walks codeLines*8 elements per pass so fetches
			// interleave with data accesses as in an unrolled loop.
			const codeLines = 4
			const perPass = codeLines * 8
			elems := footprintBytes / strideBytes
			vec := l.Obj(l.Data, 0)
			// The init sweep and every traversal each access all elements
			// and fetch the loop body once per pass.
			passes := (elems + perPass - 1) / perPass
			k := newKernel(name, l, (sweeps+1)*(elems+passes*codeLines))
			// Initialisation sweep: write the vector once.
			for e := 0; e < elems; e += perPass {
				for j := e; j < e+perPass && j < elems; j++ {
					k.store(vec + uint64(j*strideBytes))
				}
				k.loopIter(0, codeLines)
			}
			// Main traversals.
			for s := 0; s < sweeps; s++ {
				for e := 0; e < elems; e += perPass {
					for j := e; j < e+perPass && j < elems; j++ {
						k.load(vec + uint64(j*strideBytes))
					}
					k.loopIter(0, codeLines)
				}
			}
			return k.b.Trace()
		},
	}
}

// eembcSpec describes one EEMBC-like kernel generically; the table below
// instantiates the eleven benchmarks of the paper's Table 2.
type eembcSpec struct {
	name, desc string
	accesses   int // the trace's length, which no layout changes
	build      func(k *kernel)
}

// EEMBC returns the eleven EEMBC-Automotive-like kernels in the order of
// the paper's Table 2 (identified there by their initials: A2 BA BI CB CN
// MA PN PU RS TB TT).
func EEMBC() []Workload {
	specs := []eembcSpec{
		{"a2time01", "angle-to-time conversion: small hot loop over sensor ring buffer", 69304, buildA2time},
		{"basefp01", "basic floating-point: arithmetic sweeps over working arrays", 60498, buildBasefp},
		{"bitmnp01", "bit manipulation: shifts and masks over bit arrays with a lookup table", 61040, buildBitmnp},
		{"cacheb01", "cache buster: large strided buffer deliberately exceeding the L1", 38912, buildCacheb},
		{"canrdr01", "CAN remote data request: message queue walk with ID table lookups", 62490, buildCanrdr},
		{"matrix01", "matrix arithmetic: row and column sweeps over three matrices", 105240, buildMatrix},
		{"pntrch01", "pointer chase: linked-list traversal over a node pool", 119042, buildPntrch},
		{"puwmod01", "pulse-width modulation: tiny control loop over a small state block", 51144, buildPuwmod},
		{"rspeed01", "road speed calculation: table-driven conversion of wheel pulses", 46044, buildRspeed},
		{"tblook01", "table lookup and interpolation over a large calibration table", 67806, buildTblook},
		{"ttsprk01", "tooth-to-spark: multi-phase ignition computation over several arrays", 74728, buildTtsprk},
	}
	out := make([]Workload, len(specs))
	for i, s := range specs {
		s := s
		out[i] = Workload{
			Name:        s.name,
			Description: s.desc,
			Build: func(l Layout) trace.Trace {
				k := newKernel(s.name, l, s.accesses)
				s.build(k)
				return k.b.Trace()
			},
		}
	}
	return out
}

// All returns every named workload: the EEMBC-like set plus the three
// synthetic footprints of the paper.
func All() []Workload {
	out := EEMBC()
	out = append(out,
		Synthetic(8*1024, 50, 4),
		Synthetic(20*1024, 50, 4),
		Synthetic(160*1024, 50, 4),
	)
	return out
}

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	all := All()
	for _, w := range all {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	sort.Strings(names)
	return Workload{}, fmt.Errorf("workload: unknown name %q (have %v)", name, names)
}

// --- the eleven kernels ------------------------------------------------
//
// Object sizes are deliberately not multiples of the 4KB cache segment:
// partial-segment objects are the ones whose per-set pressure depends on
// relative alignment, which is what makes deterministic caches
// layout-sensitive (and what RM's per-segment permutation randomizes away).

// buildA2time: angle-to-time. Hot loop of 70 code lines; a 1KB sample
// ring, a 768B history window and a 256B state block; stack frames for the
// conversion call.
func buildA2time(k *kernel) {
	const codeLines = 70
	const ring = 1024
	samples := k.l.Obj(k.l.Data, 0)
	history := k.l.Obj(k.l.Data, 1)
	state := k.l.Obj(k.l.Table, 0)
	k.initPhase(samples, ring, 0, 8)
	k.initPhase(history, 768, 0, 8)
	for it := 0; it < 800; it++ {
		pos := uint64(it*4) % ring
		k.load(samples + pos)
		k.load(history + uint64(it*8)%768)
		k.load(history + uint64(it*8+384)%768)
		k.store(samples + pos)
		for w := 0; w < 4; w++ {
			k.load(state + uint64(w*64))
		}
		k.stackFrame(4)
		k.loopIter(0, codeLines)
	}
}

// buildBasefp: floating-point sweeps over a 6KB working array with a
// 2.5KB coefficient table and a 256B result block; 90-line loop body.
func buildBasefp(k *kernel) {
	const codeLines = 90
	const arr = 6 * 1024
	const coef = 2560
	work := k.l.Obj(k.l.Data, 0)
	coefs := k.l.Obj(k.l.Data, 1)
	result := k.l.Obj(k.l.Data, 2)
	k.initPhase(work, arr, 0, 8)
	k.initPhase(coefs, coef, 0, 8)
	for it := 0; it < 450; it++ {
		off := uint64(it%48) * 128
		for e := uint64(0); e < 128; e += 4 {
			k.load(work + off + e)
		}
		k.load(coefs + uint64(it*32)%coef)
		k.load(coefs + uint64(it*32+coef/2)%coef)
		k.store(result + uint64(it%64)*4)
		k.stackFrame(2)
		k.loopIter(0, codeLines)
	}
}

// buildBitmnp: forward and backward passes over two 2.5KB bit arrays with
// lookups into a 1KB nibble table; 110-line loop body.
func buildBitmnp(k *kernel) {
	const codeLines = 110
	const arr = 2560
	bits0 := k.l.Obj(k.l.Data, 0)
	bits1 := k.l.Obj(k.l.Data, 1)
	table := k.l.Obj(k.l.Table, 0)
	k.initPhase(bits0, arr, 0, 8)
	k.initPhase(bits1, arr, 0, 8)
	for it := 0; it < 400; it++ {
		base := bits0
		if it%2 == 1 {
			base = bits1
		}
		win := uint64(it%10) * 256
		if it%2 == 0 {
			for e := uint64(0); e < 256; e += 8 {
				k.load(base + win + e)
			}
		} else {
			for e := uint64(256); e > 0; e -= 8 {
				k.load(base + win + e - 8)
			}
		}
		for t := 0; t < 6; t++ {
			k.load(table + uint64(k.rng.Intn(1024))&^3)
		}
		k.store(base + win)
		k.loopIter(0, codeLines)
	}
}

// buildCacheb: the suite's cache stresser: a 24KB buffer (1.5x the L1)
// walked with a 128B stride so successive accesses hop sets; 40-line loop.
func buildCacheb(k *kernel) {
	const codeLines = 40
	const buf = 24 * 1024
	b := k.l.Obj(k.l.Data, 0)
	k.initPhase(b, buf, 0, 8)
	for it := 0; it < 500; it++ {
		start := uint64(it%16) * 32
		for e := uint64(0); e < buf; e += 128 * 16 {
			k.load(b + start + e)
			k.store(b + start + e + 64)
		}
		k.loopIter(0, codeLines)
	}
}

// buildCanrdr: a 5KB message queue consumed FIFO with identifier lookups
// in a 1KB table and a 512B status block; 85-line loop body.
func buildCanrdr(k *kernel) {
	const codeLines = 85
	const queue = 5 * 1024
	q := k.l.Obj(k.l.Data, 0)
	status := k.l.Obj(k.l.Data, 1)
	idtab := k.l.Obj(k.l.Table, 0)
	k.initPhase(q, queue, 0, 8)
	for it := 0; it < 550; it++ {
		msg := uint64(it*64) % queue
		for w := uint64(0); w < 64; w += 4 { // read the message
			k.load(q + msg + w)
		}
		k.load(idtab + uint64(k.rng.Intn(1024))&^3) // ID match
		k.load(idtab + uint64(k.rng.Intn(1024))&^3)
		k.store(status + uint64(it%16)*32)
		k.store(q + msg) // mark consumed
		k.stackFrame(3)
		k.loopIter(0, codeLines)
	}
}

// buildMatrix: row sweeps of A, column sweeps of B (stride = one row) and
// stores into C; three 40x40 matrices of 4-byte elements (6.25KB each,
// deliberately not a whole number of cache segments); 75-line loop body.
func buildMatrix(k *kernel) {
	const codeLines = 75
	const dim = 40
	const mat = dim * dim * 4
	a := k.l.Obj(k.l.Data, 0)
	bm := k.l.Obj(k.l.Data, 1)
	cm := k.l.Obj(k.l.Data, 2)
	k.initPhase(a, mat, 0, 8)
	k.initPhase(bm, mat, 0, 8)
	k.initPhase(cm, mat, 0, 8)
	for pass := 0; pass < 16; pass++ {
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				k.load(a + uint64((i*dim+j)*4))  // row walk
				k.load(bm + uint64((j*dim+i)*4)) // column walk
			}
			k.store(cm + uint64((i*dim+pass%dim)*4))
			k.loopIter(0, codeLines)
		}
	}
}

// buildPntrch: pointer chase across an 8KB node pool along a precomputed
// random cycle, recording hits in a 2.5KB visited bitmap; 50-line loop
// body, one hop per iteration plus payload.
func buildPntrch(k *kernel) {
	const codeLines = 50
	const nodes = 256 // 8KB pool, 32B nodes
	pool := k.l.Obj(k.l.Pool, 0)
	visited := k.l.Obj(k.l.Data, 0)
	// Build a random Hamiltonian cycle over the pool (Sattolo's algorithm),
	// identical on every run: it is program data.
	next := make([]int, nodes)
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = i
	}
	for i := nodes - 1; i > 0; i-- {
		j := k.rng.Intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < nodes-1; i++ {
		next[perm[i]] = perm[i+1]
	}
	next[perm[nodes-1]] = perm[0]
	k.initPhase(pool, nodes*32, 0, 8)
	cur := 0
	for it := 0; it < 2200; it++ {
		k.load(pool + uint64(cur*32))         // node header (next pointer)
		k.load(pool + uint64(cur*32) + 8)     // payload
		k.load(visited + (uint64(cur)*10)&^3) // visited bitmap (2.5KB)
		if it%16 == 0 {
			k.store(pool + uint64(cur*32) + 16)
		}
		cur = next[cur]
		k.loopIter(0, codeLines)
	}
}

// buildPuwmod: pulse-width modulation: a tiny 30-line control loop over a
// 512B state block, store-heavy, very many iterations. Deliberately the
// smallest footprint of the suite: on such kernels every placement policy
// behaves alike, which anchors the low end of Figure 4(a).
func buildPuwmod(k *kernel) {
	const codeLines = 30
	state := k.l.Obj(k.l.Data, 0)
	k.initPhase(state, 512, 0, 8)
	for it := 0; it < 1500; it++ {
		s := uint64(it%16) * 32
		k.load(state + s)
		k.load(state + s + 8)
		k.store(state + s + 16)
		k.store(state + s + 24)
		k.loopIter(0, codeLines)
	}
}

// buildRspeed: road-speed computation: 45-line loop, a 512B pulse buffer,
// a 2KB conversion table and a 2.5KB calibration block hit per iteration.
func buildRspeed(k *kernel) {
	const codeLines = 45
	pulses := k.l.Obj(k.l.Data, 0)
	conv := k.l.Obj(k.l.Table, 0)
	calib := k.l.Obj(k.l.Table, 1)
	k.initPhase(pulses, 512, 0, 8)
	for it := 0; it < 850; it++ {
		k.load(pulses + uint64(it*8)%512)
		idx := uint64(k.rng.Intn(2048)) &^ 3
		k.load(conv + idx)
		k.load(conv + (idx+4)%2048)
		k.load(calib + uint64(it*52)%2560)
		k.store(pulses + uint64(it*8+4)%512)
		k.stackFrame(2)
		k.loopIter(0, codeLines)
	}
}

// buildTblook: table lookup and interpolation over a 12KB calibration
// table (3 L1 ways' worth) with a 512B result buffer and a 768B index
// block: four lookup pairs per 80-line iteration.
func buildTblook(k *kernel) {
	const codeLines = 80
	const table = 12 * 1024
	tab := k.l.Obj(k.l.Table, 0)
	result := k.l.Obj(k.l.Data, 0)
	index := k.l.Obj(k.l.Data, 1)
	k.initPhase(tab, table, 0, 8)
	for it := 0; it < 650; it++ {
		for p := 0; p < 4; p++ {
			k.load(index + uint64((it*4+p)*12)%768)
			idx := uint64(k.rng.Intn(table-8)) &^ 3
			k.load(tab + idx)     // y0
			k.load(tab + idx + 4) // y1 (interpolation pair)
		}
		k.store(result + uint64(it%16)*32)
		k.stackFrame(3)
		k.loopIter(0, codeLines)
	}
}

// buildTtsprk: tooth-to-spark: three phases with their own loop bodies
// (60/50/40 lines at distinct code offsets) over three independently
// placed 2KB arrays and a 2KB table, repeated 250 times.
func buildTtsprk(k *kernel) {
	const arr = 2 * 1024
	a0 := k.l.Obj(k.l.Data, 0)
	a1 := k.l.Obj(k.l.Data, 1)
	a2 := k.l.Obj(k.l.Data, 2)
	table := k.l.Obj(k.l.Table, 0)
	k.initPhase(a0, arr, 0, 8)
	k.initPhase(a1, arr, 0, 8)
	k.initPhase(a2, arr, 0, 8)
	for it := 0; it < 250; it++ {
		// Phase 1: tooth wheel scan.
		for e := uint64(0); e < 512; e += 8 {
			k.load(a0 + (uint64(it%4)*512 + e))
		}
		k.loopIter(0, 60)
		// Phase 2: spark angle from calibration table.
		for p := 0; p < 6; p++ {
			k.load(table + uint64(k.rng.Intn(2048))&^3)
		}
		for e := uint64(0); e < 256; e += 8 {
			k.load(a1 + (uint64(it%8)*256 + e))
		}
		k.loopIter(60*LineBytes, 50)
		// Phase 3: dwell update.
		for e := uint64(0); e < 256; e += 16 {
			k.load(a2 + (uint64(it%8)*256 + e))
			k.store(a2 + (uint64(it%8)*256 + e + 8))
		}
		k.stackFrame(4)
		k.loopIter((60+50)*LineBytes, 40)
	}
}
