package iid

import (
	"math"
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
