// Streaming, mergeable accumulators: the online half of the MBPTA
// statistics path. A campaign sharded into chunks accumulates each chunk
// into private accumulators and merges them in canonical run-index order,
// so the aggregate of a million-run campaign needs O(1) memory in the run
// count instead of buffering the full measurement vector.
//
// Exactness contract. Counts, minima, maxima, block maxima and the
// sketch's bucket counts are exact and independent of how the stream was
// sharded or in which order shards merged. The running Sum is a float64
// addition chain: for integral inputs (simulated cycle counts) it is
// exact while the total stays below 2^53, which makes Mean bit-identical
// to the batch stats.Mean for any sharding — the property the repo's
// determinism gate (BENCH_PR*.json) pins. The variance term uses the
// numerically stable Welford/Chan combination; it is accurate for any
// merge order but its last few ulps may depend on shard boundaries, so it
// is never part of the bit-identity contract.
package stats

import "math"

// Moments is a mergeable streaming accumulator for the count, sum,
// extremes and second central moment of a sample. The zero value is an
// empty accumulator ready for Add.
type Moments struct {
	N   int64
	Sum float64
	Min float64
	Max float64

	// Welford running mean and sum of squared deviations, maintained
	// separately from Sum: Sum/N is the exact (grouping-independent) mean
	// for integral inputs, while mean/m2 give a cancellation-free variance.
	mean float64
	m2   float64
}

// Add accumulates one observation.
//
//rm:hotpath
func (m *Moments) Add(x float64) {
	if m.N == 0 {
		m.Min, m.Max = x, x
	} else {
		if x < m.Min {
			m.Min = x
		}
		if x > m.Max {
			m.Max = x
		}
	}
	m.N++
	m.Sum += x
	d := x - m.mean
	m.mean += d / float64(m.N)
	m.m2 += d * (x - m.mean)
}

// Merge folds o into m (Chan et al.'s parallel combination for the
// variance term). Merging shard accumulators in stream order reproduces
// the sequential N, Sum, Min and Max exactly.
//
//rm:hotpath
func (m *Moments) Merge(o *Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = *o
		return
	}
	if o.Min < m.Min {
		m.Min = o.Min
	}
	if o.Max > m.Max {
		m.Max = o.Max
	}
	n, on := float64(m.N), float64(o.N)
	d := o.mean - m.mean
	m.m2 += o.m2 + d*d*n*on/(n+on)
	m.mean += d * on / (n + on)
	m.Sum += o.Sum
	m.N += o.N
}

// Mean returns Sum/N (0 for an empty accumulator) — bit-identical to the
// batch stats.Mean for integral inputs under any sharding.
func (m *Moments) Mean() float64 {
	if m.N == 0 {
		return 0
	}
	return m.Sum / float64(m.N)
}

// Welford returns the internal running mean and squared-deviation sum, so
// checkpoint codecs outside the package can serialize the complete
// accumulator state (N/Sum/Min/Max alone cannot rebuild the variance).
func (m *Moments) Welford() (mean, m2 float64) { return m.mean, m.m2 }

// SetWelford restores the internal Welford terms captured by Welford —
// the other half of a checkpoint round trip.
func (m *Moments) SetWelford(mean, m2 float64) { m.mean, m.m2 = mean, m2 }

// Quantile sketch geometry: values >= 1 land in one of 64 binary octaves
// [2^o, 2^(o+1)), each split into sketchSub equal-width sub-buckets;
// values below 1 share the underflow bucket 0. Bucket boundaries are
// fixed constants, so the bucket of a value — and therefore every count
// and every interpolated quantile — is a pure function of the data,
// independent of sharding, merge order or worker count.
const (
	sketchSub     = 8
	sketchOctaves = 64
	sketchBuckets = 1 + sketchOctaves*sketchSub
)

// QuantileSketch is a mergeable fixed-size histogram sketch for
// deterministic streaming quantile estimates. The zero value is empty and
// ready for Add. Within an octave a bucket spans 1/8 of the octave, so a
// quantile estimate carries at most ~12.5% relative error (far less in
// practice, via in-bucket interpolation); counts and merges are exact.
type QuantileSketch struct {
	N       int64
	Buckets [sketchBuckets]int64
}

// sketchBucket maps x to its bucket index.
func sketchBucket(x float64) int {
	if !(x >= 1) { // negatives, zero, NaN: underflow bucket
		return 0
	}
	if math.IsInf(x, 1) {
		return sketchBuckets - 1
	}
	f, e := math.Frexp(x)   // x = f * 2^e, f in [0.5, 1)
	o := e - 1              // x in [2^o, 2^(o+1))
	if o >= sketchOctaves { // anything past 2^64
		return sketchBuckets - 1
	}
	s := int((f - 0.5) * (2 * sketchSub))
	if s >= sketchSub {
		s = sketchSub - 1
	}
	return 1 + o*sketchSub + s
}

// sketchBounds returns the value range [lo, hi) of bucket i.
func sketchBounds(i int) (lo, hi float64) {
	if i <= 0 {
		return 0, 1
	}
	o := (i - 1) / sketchSub
	s := (i - 1) % sketchSub
	base := math.Ldexp(1, o) // 2^o
	step := base / sketchSub
	return base + float64(s)*step, base + float64(s+1)*step
}

// Add accumulates one observation.
//
//rm:hotpath
func (q *QuantileSketch) Add(x float64) {
	q.N++
	q.Buckets[sketchBucket(x)]++
}

// Merge folds o into q. Bucket counts are integers, so the merged sketch
// is identical for any merge order.
//
//rm:hotpath
func (q *QuantileSketch) Merge(o *QuantileSketch) {
	q.N += o.N
	for i, c := range o.Buckets {
		q.Buckets[i] += c
	}
}

// Quantile returns the deterministic p-quantile estimate (0 <= p <= 1) by
// linear interpolation inside the bucket holding the target rank. It
// returns 0 for an empty sketch.
func (q *QuantileSketch) Quantile(p float64) float64 {
	if q.N == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(q.N-1) // fractional rank in [0, N-1]
	var cum int64
	last := 0.0
	for i, c := range q.Buckets {
		if c == 0 {
			continue
		}
		// Ranks [cum, cum+c) live in this bucket.
		if target < float64(cum+c) {
			lo, hi := sketchBounds(i)
			t := (target - float64(cum)) / float64(c)
			if t < 0 {
				t = 0
			}
			return lo + t*(hi-lo)
		}
		cum += c
		_, last = sketchBounds(i)
	}
	return last
}

// Footprint returns the resident size of the sketch in bytes, for
// accumulator-memory accounting.
func (q *QuantileSketch) Footprint() int { return 8 * (1 + sketchBuckets) }

// BlockMax is a mergeable exact block-maxima accumulator: the streaming
// form of the EVT reduction (evt.BlockMaxima). The stream's run indices
// [0, runs) are partitioned into fixed blocks of Block runs; Max[i] holds
// the running maximum of block First+i. Because max is associative and
// commutative, the merged per-block maxima are bit-identical to the batch
// reduction for any sharding and any merge order.
//
// A shard covering runs [lo, hi) only needs the blocks intersecting that
// range: NewBlockMax(block, lo/block, (hi-1)/block+1) keeps shard
// accumulators O(shard size / block) while the campaign-level accumulator
// spans every complete block.
type BlockMax struct {
	Block int
	First int // block index of Max[0]
	Max   []float64
}

// NewBlockMax returns an accumulator for blocks [first, last) of a stream
// with the given block size. block must be >= 1 and last > first.
func NewBlockMax(block, first, last int) *BlockMax {
	b := &BlockMax{Block: block, First: first, Max: make([]float64, last-first)}
	for i := range b.Max {
		b.Max[i] = math.Inf(-1)
	}
	return b
}

// Add accumulates the observation of one run index. Runs outside the
// accumulator's block range are ignored.
//
//rm:hotpath
func (b *BlockMax) Add(run int, x float64) {
	i := run/b.Block - b.First
	if i < 0 || i >= len(b.Max) {
		return
	}
	if x > b.Max[i] {
		b.Max[i] = x
	}
}

// Merge folds o's per-block partial maxima into b (blocks outside b's
// range are ignored). Merging every shard of a partition of [0, runs)
// reproduces the batch block maxima exactly.
//
//rm:hotpath
func (b *BlockMax) Merge(o *BlockMax) {
	for i, m := range o.Max {
		j := o.First + i - b.First
		if j < 0 || j >= len(b.Max) {
			continue
		}
		if m > b.Max[j] {
			b.Max[j] = m
		}
	}
}
