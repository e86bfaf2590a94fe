package stats

import (
	"math"
	"testing"

	"repro/internal/prng"
)

// randomShards cuts [0, n) into 1..maxShards contiguous shards at random
// boundaries drawn from g.
func randomShards(g *prng.PRNG, n, maxShards int) [][2]int {
	if n < 2 {
		return [][2]int{{0, n}}
	}
	k := 1 + g.Intn(maxShards)
	cuts := map[int]bool{}
	for i := 0; i < k-1; i++ {
		cuts[1+g.Intn(n-1)] = true
	}
	bounds := []int{0}
	for c := 1; c < n; c++ {
		if cuts[c] {
			bounds = append(bounds, c)
		}
	}
	bounds = append(bounds, n)
	var out [][2]int
	for i := 0; i+1 < len(bounds); i++ {
		out = append(out, [2]int{bounds[i], bounds[i+1]})
	}
	return out
}

// shuffle permutes idx deterministically from g (Fisher-Yates).
func shuffle(g *prng.PRNG, idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// TestMomentsMergeMatchesBatch: for random data, random shardings and
// random merge orders, the merged Moments reproduce the batch statistics.
// Count and extremes must be exact; mean and variance within floating
// tolerance (merge order perturbs only the last ulps of the Welford term).
func TestMomentsMergeMatchesBatch(t *testing.T) {
	g := prng.New(0xACC1)
	for trial := 0; trial < 60; trial++ {
		n := 2 + g.Intn(800)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 1e5 + 1e4*g.Float64() // large offset: cancellation stress
		}
		shards := randomShards(g, n, 12)
		accs := make([]Moments, len(shards))
		for si, s := range shards {
			for _, x := range xs[s[0]:s[1]] {
				accs[si].Add(x)
			}
		}
		order := make([]int, len(shards))
		for i := range order {
			order[i] = i
		}
		shuffle(g, order)
		var merged Moments
		for _, si := range order {
			merged.Merge(&accs[si])
		}
		if merged.N != int64(n) {
			t.Fatalf("trial %d: merged N = %d, want %d", trial, merged.N, n)
		}
		if merged.Min != Min(xs) || merged.Max != Max(xs) {
			t.Fatalf("trial %d: merged extremes (%v, %v) != batch (%v, %v)",
				trial, merged.Min, merged.Max, Min(xs), Max(xs))
		}
		if m, want := merged.Mean(), Mean(xs); math.Abs(m-want) > 1e-9*math.Abs(want) {
			t.Fatalf("trial %d: merged mean %v, batch %v", trial, m, want)
		}
		_, m2 := merged.Welford()
		if v, want := m2/float64(merged.N-1), Variance(xs); math.Abs(v-want) > 1e-6*want+1e-9 {
			t.Fatalf("trial %d: merged variance %v, batch %v", trial, v, want)
		}
	}
}

// TestMomentsExactForIntegralInputs pins the bit-identity contract the
// engine relies on: for integral observations (cycle counts), the merged
// Sum — and therefore Mean — equals the sequential batch computation
// bit-for-bit, for any sharding merged in stream order.
func TestMomentsExactForIntegralInputs(t *testing.T) {
	g := prng.New(0xACC2)
	for trial := 0; trial < 60; trial++ {
		n := 1 + g.Intn(1000)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(100000 + g.Intn(5000000)) // integral, like cycles
		}
		shards := randomShards(g, n, 9)
		var merged Moments
		for _, s := range shards {
			var acc Moments
			for _, x := range xs[s[0]:s[1]] {
				acc.Add(x)
			}
			merged.Merge(&acc)
		}
		var seq Moments
		for _, x := range xs {
			seq.Add(x)
		}
		if merged.Sum != seq.Sum {
			t.Fatalf("trial %d: merged Sum %v != sequential %v", trial, merged.Sum, seq.Sum)
		}
		if merged.Mean() != Mean(xs) {
			t.Fatalf("trial %d: merged Mean %v != batch stats.Mean %v", trial, merged.Mean(), Mean(xs))
		}
	}
}

// TestSketchMergeMatchesBatch: merged sketches are identical (bucket by
// bucket) to the batch-filled sketch for any sharding and merge order,
// and quantile estimates stay within the documented bucket resolution.
func TestSketchMergeMatchesBatch(t *testing.T) {
	g := prng.New(0x5CE7)
	for trial := 0; trial < 40; trial++ {
		n := 2 + g.Intn(600)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Exp(14 * g.Float64()) // spread across many octaves
		}
		var batch QuantileSketch
		for _, x := range xs {
			batch.Add(x)
		}
		shards := randomShards(g, n, 10)
		accs := make([]QuantileSketch, len(shards))
		for si, s := range shards {
			for _, x := range xs[s[0]:s[1]] {
				accs[si].Add(x)
			}
		}
		order := make([]int, len(shards))
		for i := range order {
			order[i] = i
		}
		shuffle(g, order)
		var merged QuantileSketch
		for _, si := range order {
			merged.Merge(&accs[si])
		}
		if merged != batch {
			t.Fatalf("trial %d: merged sketch differs from batch sketch", trial)
		}
		// A rank-based histogram estimate must land within bucket
		// resolution (1/8 octave = 12.5%) of the order-statistic range
		// bracketing the target rank.
		s := Sorted(xs)
		for _, p := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			got := merged.Quantile(p)
			h := p * float64(n-1)
			lo, hi := s[int(math.Floor(h))], s[int(math.Ceil(h))]
			if got < lo/1.125-1 || got > hi*1.125+1 {
				t.Fatalf("trial %d: q(%v) = %v outside [%v, %v] ± bucket resolution", trial, p, got, lo, hi)
			}
		}
	}
}

// TestSketchQuantileMonotone: quantile estimates never decrease in p.
func TestSketchQuantileMonotone(t *testing.T) {
	g := prng.New(0x5CE8)
	var q QuantileSketch
	for i := 0; i < 500; i++ {
		q.Add(1 + 1e6*g.Float64())
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.01 {
		v := q.Quantile(p)
		if v < prev {
			t.Fatalf("quantile not monotone: q(%v) = %v < %v", p, v, prev)
		}
		prev = v
	}
}

// TestSketchEdgeValues: out-of-range inputs land in the boundary buckets
// without panicking, and the empty sketch reports zero.
func TestSketchEdgeValues(t *testing.T) {
	var q QuantileSketch
	if q.Quantile(0.5) != 0 {
		t.Errorf("empty sketch quantile = %v, want 0", q.Quantile(0.5))
	}
	for _, x := range []float64{0, -3, 0.5, math.Inf(1), math.Inf(-1), math.NaN(), 1e300} {
		q.Add(x)
	}
	if q.N != 7 {
		t.Errorf("N = %d, want 7", q.N)
	}
	if q.Footprint() <= 0 {
		t.Errorf("Footprint() = %d", q.Footprint())
	}
}

// TestBlockMaxMergeMatchesBatch: per-shard partial block maxima merged in
// any order are bit-identical to the batch per-block reduction.
func TestBlockMaxMergeMatchesBatch(t *testing.T) {
	g := prng.New(0xB10C)
	for trial := 0; trial < 60; trial++ {
		n := 4 + g.Intn(900)
		block := 2 + g.Intn(25)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(1000 + g.Intn(1000000))
		}
		nb := n / block
		if nb == 0 {
			continue
		}
		shards := randomShards(g, n, 11)
		parts := make([]*BlockMax, len(shards))
		for si, s := range shards {
			lo, hi := s[0], s[1]
			parts[si] = NewBlockMax(block, lo/block, (hi-1)/block+1)
			for run := lo; run < hi; run++ {
				parts[si].Add(run, xs[run])
			}
		}
		order := make([]int, len(shards))
		for i := range order {
			order[i] = i
		}
		shuffle(g, order)
		central := NewBlockMax(block, 0, nb)
		for _, si := range order {
			central.Merge(parts[si])
		}
		for b := 0; b < nb; b++ {
			want := Max(xs[b*block : (b+1)*block])
			if central.Max[b] != want {
				t.Fatalf("trial %d: block %d max = %v, want %v", trial, b, central.Max[b], want)
			}
		}
	}
}
