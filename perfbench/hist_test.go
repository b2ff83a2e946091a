package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBucketRangesTile(t *testing.T) {
	for i := 0; i < nBuckets-1; i++ {
		lo, hi := bucketRange(i)
		if bucketOf(lo) != i || bucketOf(hi) != i {
			t.Fatalf("bucket %d: range [%d,%d] maps to %d,%d", i, lo, hi, bucketOf(lo), bucketOf(hi))
		}
		next, _ := bucketRange(i + 1)
		if next != hi+1 {
			t.Fatalf("gap after bucket %d: hi %d next lo %d", i, hi, next)
		}
	}
	if got := bucketOf(math.MaxInt64); got != nBuckets-1 {
		t.Fatalf("max value in bucket %d, want %d", got, nBuckets-1)
	}
}

func TestQuantileWithinOneBucketOfExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5000)
		var h hist
		vals := make([]int64, n)
		for i := range vals {
			// Log-normal around ~50µs in ns, the shape of request latencies.
			vals[i] = int64(math.Exp(rng.NormFloat64()*1.5 + 10.8))
			h.recordValue(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			exact := vals[rank-1]
			got := h.quantile(q)
			if d := bucketOf(got) - bucketOf(exact); d < -1 || d > 1 {
				t.Fatalf("trial %d n=%d q=%v: got %d (bucket %d), exact %d (bucket %d)",
					trial, n, q, got, bucketOf(got), exact, bucketOf(exact))
			}
		}
		if h.n != uint64(n) {
			t.Fatalf("count %d, want %d", h.n, n)
		}
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a, b, union hist
	for i := 0; i < 3000; i++ {
		v := rng.Int63n(1 << uint(rng.Intn(40)+1))
		if rng.Intn(3) == 0 {
			a.recordValue(v)
		} else {
			b.recordValue(v)
		}
		union.recordValue(v)
	}
	a.merge(&b)
	if a != union {
		t.Fatal("merged histogram differs from the histogram of the union")
	}
	for _, q := range []float64{0.5, 0.99} {
		if a.quantile(q) != union.quantile(q) {
			t.Fatalf("q=%v: merged %d, union %d", q, a.quantile(q), union.quantile(q))
		}
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h hist
	if h.quantile(0.5) != 0 || h.n != 0 {
		t.Fatal("empty histogram must report zero")
	}
}
