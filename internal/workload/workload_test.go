package workload

import (
	"testing"

	"repro/internal/prng"
	"repro/internal/trace"
)

func TestAllWorkloadsBuildNonEmpty(t *testing.T) {
	if n := len(All()); n != 14 {
		t.Fatalf("All() has %d workloads, want 11 EEMBC + 3 synthetic", n)
	}
	l := DefaultLayout()
	for _, w := range All() {
		tr := w.Build(l)
		if len(tr) < 1000 {
			t.Errorf("%s: trace only %d accesses", w.Name, len(tr))
		}
		f, ld, st := tr.Counts()
		if f == 0 || ld == 0 {
			t.Errorf("%s: degenerate trace (f=%d l=%d s=%d)", w.Name, f, ld, st)
		}
	}
}

// TestBuiltinTracesAreExactlySized pins every built-in kernel's size hint
// to its access count: a build allocates its trace once and never
// regrows it, at any layout.
func TestBuiltinTracesAreExactlySized(t *testing.T) {
	for _, w := range All() {
		for _, l := range []Layout{DefaultLayout(), BaselineLayout()} {
			if tr := w.Build(l); cap(tr) != len(tr) {
				t.Errorf("%s: %d accesses built in a trace sized for %d; size the kernel for %d",
					w.Name, len(tr), cap(tr), len(tr))
			}
		}
	}
}

func TestEEMBCCountAndOrder(t *testing.T) {
	ws := EEMBC()
	if len(ws) != 11 {
		t.Fatalf("EEMBC suite has %d kernels, want 11 (Table 2)", len(ws))
	}
	want := []string{"a2time01", "basefp01", "bitmnp01", "cacheb01", "canrdr01",
		"matrix01", "pntrch01", "puwmod01", "rspeed01", "tblook01", "ttsprk01"}
	for i, w := range ws {
		if w.Name != want[i] {
			t.Fatalf("kernel %d = %s, want %s", i, w.Name, want[i])
		}
		if w.Description == "" {
			t.Errorf("%s has no description", w.Name)
		}
	}
}

func TestTracesAreDeterministic(t *testing.T) {
	// The program (including its pseudo-random content) is fixed: two
	// builds under the same layout must be identical. This is what makes
	// run-to-run variation attributable to the hardware seed alone.
	l := DefaultLayout()
	for _, w := range All() {
		a := w.Build(l)
		b := w.Build(l)
		if len(a) != len(b) {
			t.Fatalf("%s: build lengths differ", w.Name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: traces diverge at access %d", w.Name, i)
			}
		}
	}
}

func TestLayoutShiftsAddressesOnly(t *testing.T) {
	// Moving the layout must not change the access structure (kinds and
	// relative offsets within each object), only the absolute addresses.
	w, err := ByName("a2time01")
	if err != nil {
		t.Fatal(err)
	}
	a := w.Build(DefaultLayout())
	l2 := DefaultLayout()
	l2.Data += 4096
	l2.Code += 8192
	b := w.Build(l2)
	if len(a) != len(b) {
		t.Fatal("layout changed trace length")
	}
	for i := range a {
		if a[i].Kind != b[i].Kind {
			t.Fatalf("layout changed access kind at %d", i)
		}
	}
}

func TestRandomizedLayoutVaries(t *testing.T) {
	g := prng.New(1)
	seen := make(map[Layout]bool)
	for i := 0; i < 50; i++ {
		seen[RandomizedLayout(g)] = true
	}
	if len(seen) < 45 {
		t.Fatalf("only %d distinct layouts in 50 draws", len(seen))
	}
	// Displacements are line-aligned and within the 16KB window.
	base := DefaultLayout()
	for i := 0; i < 200; i++ {
		l := RandomizedLayout(g)
		checks := []struct{ got, base uint64 }{
			{l.Code, base.Code}, {l.Data, base.Data}, {l.Table, base.Table},
			{l.Stack, base.Stack}, {l.Pool, base.Pool},
		}
		for _, c := range checks {
			d := c.got - c.base
			if d%LineBytes != 0 || d >= 16*1024 {
				t.Fatalf("displacement %d not line-aligned within 16KB", d)
			}
		}
		for _, s := range l.Scatter {
			if s%LineBytes != 0 || s >= 16*1024 {
				t.Fatalf("scatter %d not line-aligned within 16KB", s)
			}
		}
	}
}

func TestSyntheticFootprints(t *testing.T) {
	// Paper Section 4: vector footprints of 8KB, 20KB, 160KB traversed 50
	// times. The built trace must touch the stated number of data lines.
	for _, kb := range []int{8, 20, 160} {
		w := Synthetic(kb*1024, 2, 4) // 2 sweeps keep the test fast
		tr := w.Build(DefaultLayout())
		dataLines := map[uint64]bool{}
		for _, a := range tr {
			if a.Kind != trace.Fetch {
				dataLines[a.Addr>>5] = true
			}
		}
		want := kb * 1024 / 32
		if len(dataLines) != want {
			t.Errorf("%dKB kernel touches %d data lines, want %d", kb, len(dataLines), want)
		}
	}
}

func TestSyntheticSweepsScaleTraceLength(t *testing.T) {
	short := Synthetic(8*1024, 10, 4).Build(DefaultLayout())
	long := Synthetic(8*1024, 50, 4).Build(DefaultLayout())
	if len(long) < 4*len(short) {
		t.Fatalf("50 sweeps (%d) not ~5x of 10 sweeps (%d)", len(long), len(short))
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("tblook01"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("synth20k"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestFootprintsMatchCharacterization(t *testing.T) {
	// Structural expectations that drive the cache behaviour: cacheb must
	// exceed the 16KB L1; a2time and puwmod must fit comfortably; tblook's
	// table spans multiple 4KB segments.
	l := DefaultLayout()
	lines := func(name string) int {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return w.Build(l).Footprint(32)
	}
	if n := lines("cacheb01"); n < 600 {
		t.Errorf("cacheb01 footprint %d lines, want > 600 (exceeds L1)", n)
	}
	if n := lines("puwmod01"); n > 200 {
		t.Errorf("puwmod01 footprint %d lines, want small", n)
	}
	if n := lines("tblook01"); n < 380 {
		t.Errorf("tblook01 footprint %d lines, want >= 384 (12KB table)", n)
	}
}

func TestStackTrafficPresent(t *testing.T) {
	w, err := ByName("a2time01")
	if err != nil {
		t.Fatal(err)
	}
	l := DefaultLayout()
	tr := w.Build(l)
	stack := 0
	for _, a := range tr {
		if a.Addr < l.Stack && a.Addr > l.Stack-4096 {
			stack++
		}
	}
	if stack == 0 {
		t.Fatal("a2time01 has no stack traffic")
	}
}

func TestPointerChaseIsIrregular(t *testing.T) {
	// pntrch's chain must not be a sequential walk: consecutive pool loads
	// should jump around the pool.
	w, err := ByName("pntrch01")
	if err != nil {
		t.Fatal(err)
	}
	l := DefaultLayout()
	tr := w.Build(l)
	var hops []uint64
	for _, a := range tr {
		if a.Kind == trace.Load && a.Addr >= l.Pool && a.Addr%32 == 0 {
			hops = append(hops, a.Addr)
		}
	}
	if len(hops) < 100 {
		t.Fatal("too few pool hops")
	}
	sequential := 0
	for i := 1; i < len(hops); i++ {
		if hops[i] == hops[i-1]+32 {
			sequential++
		}
	}
	if sequential > len(hops)/4 {
		t.Fatalf("pointer chase looks sequential: %d/%d consecutive hops", sequential, len(hops))
	}
}

func TestRandomizedLayoutFrom(t *testing.T) {
	// The legacy stream is preserved: RandomizedLayout equals
	// RandomizedLayoutFrom over the default bases with the deliberate
	// scatter zeroed (absolute scatter replacement), for the same PRNG
	// state.
	legacyBase := DefaultLayout()
	legacyBase.Scatter = [ScatterSlots]uint64{}
	if BaselineLayout() != legacyBase {
		t.Fatalf("BaselineLayout() = %+v, want the default with zero scatter", BaselineLayout())
	}
	for seed := uint64(1); seed < 20; seed++ {
		if got, want := RandomizedLayoutFrom(legacyBase, prng.New(seed)), RandomizedLayout(prng.New(seed)); got != want {
			t.Fatalf("seed %d: From(default/zero-scatter) %+v != legacy %+v", seed, got, want)
		}
	}
	// Displacements are applied relative to the supplied base.
	base := DefaultLayout()
	base.Data += 12
	base.Scatter[3] = 5
	l := RandomizedLayoutFrom(base, prng.New(7))
	ref := RandomizedLayoutFrom(DefaultLayout(), prng.New(7))
	if l.Data != ref.Data+12 {
		t.Errorf("Data base shift lost: got %d, want %d", l.Data, ref.Data+12)
	}
	if l.Scatter[3] != ref.Scatter[3]-DefaultLayout().Scatter[3]+5 {
		t.Errorf("scatter base not honoured: got %d", l.Scatter[3])
	}
	// Same PRNG state, same base -> identical layout (purity, the HWM
	// determinism contract).
	if RandomizedLayoutFrom(base, prng.New(7)) != RandomizedLayoutFrom(base, prng.New(7)) {
		t.Error("RandomizedLayoutFrom is not a pure function of (base, seed)")
	}
}
