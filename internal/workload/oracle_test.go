package workload

import (
	"math"
	"slices"
	"testing"

	"repro/internal/trace"
)

// fold is trace's test oracle Fold (internal/trace/compiled_test.go),
// which this package's tests cannot import: the fold trace.Numbering
// applies as it numbers, as a second pass over one op per access.
func fold(ops []trace.Op) []trace.Op {
	last := [2]int{-1, -1} // per stream: index of the last kept op
	n := 0
	for _, op := range ops {
		s := 0
		if op.Kind != trace.Fetch {
			s = 1
		}
		if j := last[s]; j >= 0 && op.Kind != trace.Store && ops[j].Kind == op.Kind && ops[j].ID == op.ID &&
			ops[j].Rep < math.MaxUint16 && ops[n-1].Trail < math.MaxUint8 {
			ops[j].Rep++
			ops[n-1].Trail++
			continue
		}
		ops[n] = op
		last[s] = n
		n++
	}
	return ops[:n]
}

// oracleKey is what the two-pass compilers numbered per stream: a line
// address (trace.Compile, empty mask) or a base granule and the layout
// fields it moves with (Relocatable).
type oracleKey struct {
	key  uint64
	mask uint16
}

// twoPass is trace.Numbering as two passes: it numbers each stream's
// keys through a map into one op per access, then folds. It returns the
// folded ops and each stream's table of keys.
func twoPass(tr trace.Trace, key func(i int) oracleKey) (ops []trace.Op, tables [2][]oracleKey) {
	ids := [2]map[oracleKey]uint32{{}, {}}
	for i, a := range tr {
		s := 0
		if a.Kind != trace.Fetch {
			s = 1
		}
		k := key(i)
		id, ok := ids[s][k]
		if !ok {
			id = uint32(len(tables[s]))
			ids[s][k] = id
			tables[s] = append(tables[s], k)
		}
		ops = append(ops, trace.Op{ID: id, Kind: a.Kind})
	}
	return fold(ops), tables
}

// keys splits a table into its keys and masks.
func keys(table []oracleKey) (ks []uint64, masks []uint16) {
	for _, k := range table {
		ks, masks = append(ks, k.key), append(masks, k.mask)
	}
	return ks, masks
}

// oracleLayouts are the layouts the differential tests build at: the
// default one, the baseline one and an unaligned base whose Data and
// Table objects overlap.
func oracleLayouts() []Layout {
	overlap := BaselineLayout()
	overlap.Data += 4
	overlap.Table = overlap.Data + 0x404
	overlap.Scatter[1] = 20
	return []Layout{DefaultLayout(), BaselineLayout(), overlap}
}

// oracleWorkloads are the built-in workloads, less synth160k in -short.
func oracleWorkloads() []Workload {
	var ws []Workload
	for _, w := range All() {
		if !testing.Short() || w.Name != "synth160k" {
			ws = append(ws, w)
		}
	}
	return ws
}

var oracleLineSizes = []int{1, 16, 32, 64, 128}

// TestCompileMatchesOracle is the differential test of trace.Compile's
// one-pass numbering on every built-in workload: for line sizes 1 to 128
// bytes it gives exactly the two-pass compiler's ops and line tables, and
// holds its ops exactly sized.
func TestCompileMatchesOracle(t *testing.T) {
	for _, w := range oracleWorkloads() {
		for _, l := range oracleLayouts() {
			tr := w.Build(l)
			for _, lb := range oracleLineSizes {
				c, err := trace.Compile(tr, lb)
				if err != nil {
					t.Fatal(err)
				}
				ops, tables := twoPass(tr, func(i int) oracleKey { return oracleKey{key: tr[i].Addr / uint64(lb)} })
				il, _ := keys(tables[0])
				dl, _ := keys(tables[1])
				if c.Len() != len(tr) || !slices.Equal(c.Ops, ops) || !slices.Equal(c.ILines, il) || !slices.Equal(c.DLines, dl) {
					t.Fatalf("%s (%d B lines, layout %+v): %d ops and %d/%d lines, oracle %d and %d/%d",
						w.Name, lb, l, len(c.Ops), len(c.ILines), len(c.DLines), len(ops), len(il), len(dl))
				}
				if cap(c.Ops) != len(c.Ops) {
					t.Fatalf("%s (%d B lines): %d folded ops hold a cap of %d", w.Name, lb, len(c.Ops), cap(c.Ops))
				}
			}
		}
	}
}

// TestRelocatableMatchesOracle is the differential test of Relocatable's
// one-pass numbering: for every built-in workload, line sizes 1 to 128
// bytes and both test base layouts, it gives exactly the two-pass
// compiler's ops and anchor tables, and holds its ops exactly sized. The
// oracle reads the field sets off its own tagged build, with field f
// moved by 1<<(40+f), which gives the same sets for the built-in
// workloads.
func TestRelocatableMatchesOracle(t *testing.T) {
	for _, w := range oracleWorkloads() {
		for _, base := range oracleLayouts()[1:] {
			tagged := base
			for f, p := range tagged.fields() {
				*p += 1 << (40 + f)
			}
			tr, tt := w.Build(base), w.Build(tagged)
			for _, lb := range oracleLineSizes {
				r, err := w.Relocatable(base, lb)
				if err != nil {
					t.Fatal(err)
				}
				granule := uint64(min(lb, LineBytes))
				ops, tables := twoPass(tr, func(i int) oracleKey {
					return oracleKey{tr[i].Addr &^ (granule - 1), uint16((tt[i].Addr - tr[i].Addr) >> 40)}
				})
				if r.Len() != len(tr) || !slices.Equal(r.ops, ops) {
					t.Fatalf("%s (%d B lines, base %+v): %d ops for %d accesses, oracle %d for %d",
						w.Name, lb, base, len(r.ops), r.Len(), len(ops), len(tr))
				}
				if cap(r.ops) != len(r.ops) {
					t.Fatalf("%s (%d B lines): %d folded ops hold a cap of %d", w.Name, lb, len(r.ops), cap(r.ops))
				}
				for s, got := range [2]anchors{r.iref, r.dref} {
					addrs, masks := keys(tables[s])
					if !slices.Equal(got.addrs, addrs) || !slices.Equal(got.masks, masks) {
						t.Fatalf("%s (%d B lines, base %+v): stream %d anchors differ from the oracle's", w.Name, lb, base, s)
					}
				}
			}
		}
	}
}

// twoBuildsOf wraps w's Build in a fresh Workload, which Relocatable
// checks by building twice.
func twoBuildsOf(w Workload) Workload {
	return Workload{Name: w.Name, Description: w.Description, Build: w.Build}
}

// checkWalk checks that Relocatable of the built-in w, which walks its
// kernel body once, gives exactly the two-build path's access count, ops
// and anchor tables: the replay tables' inputs are the ops and the
// tables' lengths, so it is equal too.
func checkWalk(t *testing.T, w Workload, base Layout, lineBytes int) {
	t.Helper()
	if w.prog == nil {
		t.Fatalf("%s has no kernel body to walk", w.Name)
	}
	got, err := w.Relocatable(base, lineBytes)
	if err != nil {
		t.Fatalf("%s: walk: %v", w.Name, err)
	}
	want, err := twoBuildsOf(w).Relocatable(base, lineBytes)
	if err != nil {
		t.Fatalf("%s: two builds: %v", w.Name, err)
	}
	if got.Len() != want.Len() || !slices.Equal(got.ops, want.ops) {
		t.Fatalf("%s (%d B lines, base %+v): walk gave %d ops for %d accesses, two builds %d for %d",
			w.Name, lineBytes, base, len(got.ops), got.Len(), len(want.ops), want.Len())
	}
	for s, pair := range [2][2]anchors{{got.iref, want.iref}, {got.dref, want.dref}} {
		if !slices.Equal(pair[0].addrs, pair[1].addrs) || !slices.Equal(pair[0].masks, pair[1].masks) {
			t.Fatalf("%s (%d B lines, base %+v): stream %d anchors differ between the walk and two builds",
				w.Name, lineBytes, base, s)
		}
	}
}

// TestWalkMatchesTwoBuilds is the differential test of the built-in
// kernels' relocation walk: on the oracle layouts and FuzzRelocate's seed
// layouts (wraparound included), for line sizes 1 to 128 bytes, it
// numbers exactly what the two-build path numbers.
func TestWalkMatchesTwoBuilds(t *testing.T) {
	layouts := oracleLayouts()
	for _, in := range relocateSeeds() {
		layouts = append(layouts, in.layout())
	}
	for _, w := range oracleWorkloads() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, base := range layouts {
				for _, lb := range oracleLineSizes {
					checkWalk(t, w, base, lb)
				}
			}
		})
	}
}
