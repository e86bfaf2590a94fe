package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the fixed bucket count of every Histogram: one bucket per
// power of two, so any non-negative int64 observation lands in exactly one
// bucket without configuration, search, or allocation.
const histBuckets = 64

// Histogram is a fixed-boundary log2 histogram of non-negative int64
// observations (latencies in nanoseconds, by convention). Bucket i counts
// observations v with 2^i <= v < 2^(i+1), except bucket 0, which covers
// [0, 2). The boundaries are fixed at compile time, so Observe is a bucket
// index computation (bits.Len64) plus three atomic adds: no locks, no
// allocation, safe for any number of concurrent writers.
//
// The zero value is ready to use; obtain shared, named instances from a
// Registry.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // sum of (clamped) observations
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value. Negative values clamp to zero (they only
// arise from clock anomalies, and dropping them would skew counts).
//
//rm:hotpath
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := 0
	if v > 1 {
		i = bits.Len64(uint64(v)) - 1
	}
	h.buckets[i].Add(1)
	h.sum.Add(uint64(v))
	h.count.Add(1)
}

// Snapshot copies the histogram state for quantile extraction and
// exposition. Concurrent observations may land between the individual
// bucket loads; quantiles therefore derive their total from the copied
// buckets, keeping every snapshot self-consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [histBuckets]uint64
}

// BucketLower returns the inclusive lower bound of bucket i.
func BucketLower(i int) float64 {
	if i <= 0 {
		return 0
	}
	return math.Ldexp(1, i)
}

// BucketUpper returns the exclusive upper bound of bucket i.
func BucketUpper(i int) float64 { return math.Ldexp(1, i+1) }

// Quantile extracts the q-quantile (0 < q < 1; p50 is Quantile(0.5)) by
// rank-walking the buckets and interpolating linearly inside the bucket
// that contains the rank — the same estimator Prometheus applies to its
// histograms, made deterministic here by the fixed log2 boundaries. With
// total observations N, the target rank is q*N; the returned value is
//
//	lower + (upper-lower) * (rank - countBelowBucket) / countInBucket
//
// for the first bucket whose cumulative count reaches the rank. An empty
// histogram returns 0. The estimate is exact whenever the rank falls in a
// bucket whose observations are uniformly spread (and always within the
// bucket's bounds), which is what the unit tests pin against known
// recorded values.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	var total uint64
	for _, c := range s.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc >= rank {
			lo, hi := BucketLower(i), BucketUpper(i)
			return lo + (hi-lo)*(rank-cum)/fc
		}
		cum += fc
	}
	// Unreachable with a consistent snapshot; return the top bound.
	return BucketUpper(histBuckets - 1)
}
