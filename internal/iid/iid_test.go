package iid

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/prng"
)

// iidSample draws n independent uniforms.
func iidSample(seed uint64, n int) []float64 {
	g := prng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = g.Float64()
	}
	return xs
}

func TestWWPassesOnIID(t *testing.T) {
	// Over many independent samples, the WW test should pass ~95% of the
	// time at the 5% level.
	pass := 0
	const trials = 200
	for s := 0; s < trials; s++ {
		r, err := WaldWolfowitz(iidSample(uint64(s)+1, 500))
		if err != nil {
			t.Fatal(err)
		}
		if r.Pass {
			pass++
		}
	}
	if pass < trials*85/100 {
		t.Fatalf("WW passed only %d/%d i.i.d. samples", pass, trials)
	}
}

func TestWWRejectsTrend(t *testing.T) {
	// A strongly trended sequence has few runs and must fail.
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
	}
	r, err := WaldWolfowitz(xs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass {
		t.Fatalf("WW passed a monotone sequence (stat %f)", r.Stat)
	}
	if r.Runs != 2 {
		t.Fatalf("monotone sequence has %d runs, want 2", r.Runs)
	}
}

func TestWWRejectsAlternating(t *testing.T) {
	// A strictly alternating sequence has too many runs: also dependence.
	xs := make([]float64, 400)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = 1
		} else {
			xs[i] = 2
		}
	}
	r, err := WaldWolfowitz(xs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass {
		t.Fatalf("WW passed an alternating sequence (stat %f)", r.Stat)
	}
}

func TestWWStatisticIsAbsolute(t *testing.T) {
	r, err := WaldWolfowitz(iidSample(7, 300))
	if err != nil {
		t.Fatal(err)
	}
	if r.Stat < 0 || r.Stat != math.Abs(r.Z) {
		t.Fatalf("Stat=%f Z=%f", r.Stat, r.Z)
	}
}

func TestWWErrors(t *testing.T) {
	if _, err := WaldWolfowitz([]float64{1, 2, 3}); err == nil {
		t.Fatal("short sample accepted")
	}
	constant := make([]float64, 100)
	if _, err := WaldWolfowitz(constant); err == nil {
		t.Fatal("constant sample accepted")
	}
}

func TestKSPassesOnSameDistribution(t *testing.T) {
	pass := 0
	const trials = 200
	for s := 0; s < trials; s++ {
		a := iidSample(uint64(2*s+1), 400)
		b := iidSample(uint64(2*s+2), 400)
		r, err := KolmogorovSmirnov2(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if r.Pass {
			pass++
		}
	}
	if pass < trials*85/100 {
		t.Fatalf("KS passed only %d/%d identical-law pairs", pass, trials)
	}
}

func TestKSRejectsShiftedDistribution(t *testing.T) {
	a := iidSample(1, 500)
	b := iidSample(2, 500)
	for i := range b {
		b[i] += 0.3
	}
	r, err := KolmogorovSmirnov2(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass {
		t.Fatalf("KS passed clearly shifted samples (D=%f p=%f)", r.D, r.P)
	}
}

func TestKSIdenticalSamplesDistanceZero(t *testing.T) {
	a := iidSample(5, 100)
	r, err := KolmogorovSmirnov2(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if r.D != 0 || !r.Pass {
		t.Fatalf("KS on identical samples: D=%f", r.D)
	}
}

func TestKSSplit(t *testing.T) {
	r, err := KSSplit(iidSample(11, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("KS split failed on an i.i.d. sample (p=%f)", r.P)
	}
	if _, err := KSSplit(make([]float64, 5)); err == nil {
		t.Fatal("short sample accepted")
	}
}

func TestKSErrors(t *testing.T) {
	if _, err := KolmogorovSmirnov2([]float64{1}, iidSample(1, 50)); err == nil {
		t.Fatal("short first sample accepted")
	}
}

// TestKSRejectsNaN: a NaN in either sample is an error. It used to stall
// the CDF merge forever, hence the timeout.
func TestKSRejectsNaN(t *testing.T) {
	clean := make([]float64, 20)
	for i := range clean {
		clean[i] = float64(i)
	}
	dirty := append([]float64(nil), clean...)
	dirty[7] = math.NaN()
	done := make(chan error, 2)
	go func() {
		_, errA := KolmogorovSmirnov2(dirty, clean)
		_, errB := KolmogorovSmirnov2(clean, dirty)
		done <- errA
		done <- errB
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("NaN sample accepted")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("KolmogorovSmirnov2 did not return on a NaN sample")
		}
	}
}

func TestETPassesOnExponentialTail(t *testing.T) {
	// Exponential data has an exactly exponential tail: ET must pass the
	// bulk of the time.
	g := prng.New(42)
	pass := 0
	const trials = 60
	for s := 0; s < trials; s++ {
		xs := make([]float64, 800)
		for i := range xs {
			xs[i] = -math.Log(1 - g.Float64())
		}
		r, err := ETTest(xs, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if r.Pass {
			pass++
		}
	}
	if pass < trials*80/100 {
		t.Fatalf("ET passed only %d/%d exponential samples", pass, trials)
	}
}

func TestETRejectsUniformTail(t *testing.T) {
	// A bounded (uniform) tail is very much not exponential: with enough
	// tail points, ET must reject in the clear majority of trials.
	g := prng.New(17)
	reject := 0
	const trials = 40
	for s := 0; s < trials; s++ {
		xs := make([]float64, 1200)
		for i := range xs {
			xs[i] = g.Float64()
		}
		r, err := ETTest(xs, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Pass {
			reject++
		}
	}
	if reject < trials*60/100 {
		t.Fatalf("ET rejected only %d/%d uniform samples", reject, trials)
	}
}

func TestETReportFields(t *testing.T) {
	xs := iidSample(3, 500)
	r, err := ETTest(xs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if r.TailN < 100 || r.TailN > 150 {
		t.Fatalf("tail size %d, want ~125", r.TailN)
	}
	if r.Threshold <= 0.5 || r.Threshold >= 1 {
		t.Fatalf("threshold %f implausible for U(0,1) with 25%% tail", r.Threshold)
	}
	if r.P < 0 || r.P > 1 {
		t.Fatalf("p-value %f", r.P)
	}
}

func TestETErrors(t *testing.T) {
	if _, err := ETTest(iidSample(1, 500), 0); err == nil {
		t.Fatal("tailFrac 0 accepted")
	}
	if _, err := ETTest(iidSample(1, 500), 1); err == nil {
		t.Fatal("tailFrac 1 accepted")
	}
	if _, err := ETTest(iidSample(1, 10), 0.25); err == nil {
		t.Fatal("short sample accepted")
	}
}

func TestETDeterministic(t *testing.T) {
	xs := iidSample(9, 600)
	a, err := ETTest(xs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ETTest(xs, 0.25)
	if a != b {
		t.Fatal("ET test is not deterministic")
	}
}

func TestETTestSearchPrefersPassingThreshold(t *testing.T) {
	// Exponential sample: the search should find a passing threshold and
	// report it.
	g := prng.New(23)
	xs := make([]float64, 800)
	for i := range xs {
		xs[i] = -math.Log(1 - g.Float64())
	}
	r, err := ETTestSearch(xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("search failed on exponential data: p=%f", r.P)
	}
}

func TestETTestSearchCustomGrid(t *testing.T) {
	g := prng.New(29)
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = -math.Log(1 - g.Float64())
	}
	r, err := ETTestSearch(xs, []int{30})
	if err != nil {
		t.Fatal(err)
	}
	if r.TailN != 30 {
		t.Fatalf("tail size %d, want 30", r.TailN)
	}
}

func TestETTestSearchErrorsOnTinySamples(t *testing.T) {
	if _, err := ETTestSearch([]float64{1, 2, 3}, nil); err == nil {
		t.Fatal("tiny sample accepted")
	}
	// A grid with no feasible entries must error, not panic.
	if _, err := ETTestSearch(make([]float64, 12), []int{100}); err == nil {
		t.Fatal("infeasible grid accepted")
	}
}

// etOracleReps is the size of the ET test's simulated null, stated
// apart from etReps so the oracle pins it.
const etOracleReps = 400

// simulateETNull is the oracle for etNull: the ET test's null simulated
// directly, as ETTest once did on every call, with the statistics in
// draw order.
func simulateETNull(n int) []float64 {
	g := prng.New(0xE7E7)
	null := make([]float64, etOracleReps)
	sim := make([]float64, n)
	for r := range null {
		for i := range sim {
			sim[i] = -math.Log(1 - g.Float64())
		}
		null[r] = ksExpDistance(sim)
	}
	return null
}

// directETP is the oracle for etPValue: the per-call loop's p-value,
// counting every simulated statistic at or above d.
func directETP(d float64, n int) float64 {
	ge := 0
	for _, s := range simulateETNull(n) {
		if s >= d {
			ge++
		}
	}
	return float64(ge+1) / float64(etOracleReps+1)
}

// TestETNullMatchesSimulation: the tabulated null is the direct
// simulation's statistics sorted, bit for bit, and its p-value counts
// exactly the statistics the direct loop counts, ties included.
func TestETNullMatchesSimulation(t *testing.T) {
	sizes := []int{1000, Window}
	for n := 10; n <= 256; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		want := simulateETNull(n)
		sort.Float64s(want)
		got := etNull(n)
		if len(got) != len(want) {
			t.Fatalf("n=%d: table holds %d statistics, want %d", n, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: table[%d] = %v, simulation %v", n, i, got[i], want[i])
			}
		}
	}

	// The p-value below, exactly at and above a table entry. The entry
	// must differ from both neighbours, so that at it a >= count and a >
	// count differ by one.
	for _, n := range []int{15, 25, 40, 60, 137} {
		null := etNull(n)
		k := etOracleReps / 2
		for null[k-1] == null[k] || null[k] == null[k+1] {
			k++
		}
		e := null[k]
		for _, d := range []float64{math.Nextafter(e, 0), e, math.Nextafter(e, 2), math.NaN(), 0, 1} {
			if got, want := etPValue(d, n), directETP(d, n); got != want {
				t.Fatalf("n=%d d=%v: p-value %v, direct simulation %v", n, d, got, want)
			}
		}
		if got, want := etPValue(e, n), float64(etOracleReps-k+1)/float64(etOracleReps+1); got != want {
			t.Fatalf("n=%d: p-value at entry %d is %v, want %v (the entry itself counts)", n, k, got, want)
		}
	}

	// ETTest's P on real vectors is the direct loop's.
	for seed := uint64(1); seed <= 6; seed++ {
		xs := iidSample(seed, 300)
		for _, frac := range []float64{0.05, 0.1, 0.2} {
			r, err := ETTest(xs, frac)
			if err != nil {
				t.Fatal(err)
			}
			if want := directETP(r.Stat, r.TailN); r.P != want {
				t.Fatalf("seed %d frac %v: ETTest P %v, direct simulation %v", seed, frac, r.P, want)
			}
		}
	}
}

// TestETTestSearchConcurrent: goroutines racing to build the same and
// different tables get the results sequential calls get. Run it under
// go test -race.
func TestETTestSearchConcurrent(t *testing.T) {
	// Four tail sizes nothing in this process has tabulated yet, so the
	// goroutines build them (also under -count).
	var sizes []int
	for k := 270; len(sizes) < 4; k += 7 {
		if _, built := etNulls.Load(k); !built {
			sizes = append(sizes, k)
		}
	}
	const goroutines = 8 // two per size, so two goroutines race on each slot
	vecs := make([][]float64, goroutines)
	for g := range vecs {
		vecs[g] = iidSample(uint64(100+g), 1000)
	}
	got := make([]ETResult, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = ETTestSearch(vecs[g], []int{sizes[g%len(sizes)]})
		}()
	}
	wg.Wait()
	for g := range goroutines {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		want, err := ETTestSearch(vecs[g], []int{sizes[g%len(sizes)]})
		if err != nil {
			t.Fatal(err)
		}
		if got[g] != want {
			t.Fatalf("goroutine %d: concurrent %+v, sequential %+v", g, got[g], want)
		}
		if got[g].TailN != sizes[g%len(sizes)] {
			t.Fatalf("goroutine %d: tail size %d, want %d", g, got[g].TailN, sizes[g%len(sizes)])
		}
		if p := directETP(got[g].Stat, got[g].TailN); got[g].P != p {
			t.Fatalf("goroutine %d: P %v, direct simulation %v", g, got[g].P, p)
		}
	}
}

// BenchmarkETTestSearch times the ET threshold search on a warm table,
// on the worst case: a 200-value vector whose tail fails at all four
// default tail sizes, so every size is tested.
func BenchmarkETTestSearch(b *testing.B) {
	xs := make([]float64, 200)
	for i := range xs {
		// A bounded tail whose density rises to its maximum: as far from
		// exponential as a tail gets.
		xs[i] = 1 - math.Pow(1-float64(i)/float64(len(xs)), 3)
	}
	r, err := ETTestSearch(xs, nil)
	if err != nil {
		b.Fatal(err)
	}
	if r.Pass { // the search stops at the first passing size
		b.Fatalf("benchmark vector passes at tail size %d; it must fail at every default size", r.TailN)
	}
	b.ReportAllocs()
	for b.Loop() {
		_, _ = ETTestSearch(xs, nil)
	}
}
