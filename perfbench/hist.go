package main

import (
	"math"
	"math/bits"
	"time"
)

// hist is a log-bucketed latency histogram: values below 32 get a bucket
// each, and every power of two above is split into 32 equal sub-buckets,
// so a bucket is at most 1/32 of its lower bound wide (~3% relative
// error). Histograms merge by adding counts, which is how per-client
// recordings combine without a lock on the hot path.
type hist struct {
	counts [nBuckets]uint64
	n      uint64
}

const (
	subBits  = 5
	subCount = 1 << subBits
	nBuckets = (64 - subBits) * subCount
)

// bucketOf returns the bucket index of a non-negative value.
func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return (shift+1)*subCount + int(uint64(v)>>uint(shift)) - subCount
}

// bucketRange returns the smallest and largest value of bucket i.
func bucketRange(i int) (lo, hi int64) {
	if i < subCount {
		return int64(i), int64(i)
	}
	shift := uint(i/subCount - 1)
	m := int64(i%subCount + subCount)
	return m << shift, (m+1)<<shift - 1
}

func (h *hist) record(d time.Duration) { h.recordValue(int64(d)) }

func (h *hist) recordValue(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns a value inside the bucket holding the sample of rank
// ceil(q*n) — the same rank an exact sort would pick — interpolated
// linearly by that rank's position among the bucket's samples. Zero when
// empty.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, hi := bucketRange(i)
			return lo + int64(float64(hi-lo)*(float64(rank-seen)-0.5)/float64(c))
		}
		seen += c
	}
	return 0
}

// quantileUs is quantile for a histogram of nanoseconds, in microseconds.
func (h *hist) quantileUs(q float64) float64 { return float64(h.quantile(q)) / 1e3 }
