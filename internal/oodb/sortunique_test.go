package oodb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/raceflag"
)

// refSortUnique is the reference SortUnique is checked against: sort and
// compact a copy.
func refSortUnique(in []OID) []OID {
	return slices.Compact(slices.Sorted(slices.Values(in)))
}

// figure7Runs is the shape of a Figure 7 point query's raw OID buffer:
// runs ascending runs of runLen OIDs each, scattered (and overlapping)
// over a span of spanWords 64-bit words.
func figure7Runs(rng *rand.Rand, runs, runLen, spanWords int) []OID {
	out := make([]OID, 0, runs*runLen)
	for r := 0; r < runs; r++ {
		o := OID(1 + rng.Intn(spanWords*64-4*runLen))
		for i := 0; i < runLen; i++ {
			out = append(out, o)
			o += OID(1 + rng.Intn(4))
		}
	}
	return out
}

// sparseOIDs draws n OIDs uniformly from [1, 2^40).
func sparseOIDs(rng *rand.Rand, n int) []OID {
	out := make([]OID, n)
	for i := range out {
		out[i] = OID(1 + rng.Int63n(1<<40-1))
	}
	return out
}

// stridedOIDs draws n OIDs of shard i of a shards-way split (every OID
// ≡ i mod shards) from the first span of that shard's OIDs.
func stridedOIDs(rng *rand.Rand, n, shards, i, span int) []OID {
	out := make([]OID, n)
	for j := range out {
		out[j] = OID(rng.Intn(span)*shards + i)
	}
	return out
}

// seq returns n OIDs from lo stepping by step, in descending order.
func seq(lo OID, n int, step OID) []OID {
	out := make([]OID, n)
	for i := range out {
		out[n-1-i] = lo + OID(i)*step
	}
	return out
}

func TestSortUniqueEdgeCases(t *testing.T) {
	if got := SortUnique(nil); got != nil {
		t.Errorf("SortUnique(nil) = %v", got)
	}
	if got := SortUnique([]OID{}); got != nil {
		t.Errorf("SortUnique(empty) = %v", got)
	}
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name  string
		in    []OID
		dense bool
	}{
		{"single", []OID{9}, false},
		{"all-dup", []OID{4, 4, 4, 4}, false},
		{"mixed", []OID{3, 1, 2, 3, 1}, false},
		{"n-below-cutoff", seq(1, denseMinLen-1, 1), false},
		{"n-at-cutoff", seq(1, denseMinLen, 1), true},
		{"all-dup-dense", slices.Repeat([]OID{77}, denseMinLen), true},
		{"figure7", figure7Runs(rng, 300, 3, 32), true},
		{"span-at-word-cap", append(seq(100, 300, 1), 100+denseMaxWords*64-1), true},
		{"span-over-word-cap", append(seq(100, 300, 1), 100+denseMaxWords*64), false},
		// 32 OIDs may span 4*32 = 128 words, i.e. 128*64 values.
		{"span-at-density-cap", append(seq(5, denseMinLen-1, 1), 5+128*64-1), true},
		{"span-over-density-cap", append(seq(5, denseMinLen-1, 1), 5+128*64), false},
		{"near-max-dense", seq(math.MaxUint64-198, 100, 2), true},
		{"near-max-sparse", append(seq(math.MaxUint64-198, 100, 2), 1), false},
		{"full-range", append(seq(math.MaxUint64-39, 40, 1), 0, 1), false},
		{"strided-2", stridedOIDs(rng, 800, 2, 1, 2000), true},
		{"strided-4", stridedOIDs(rng, 800, 4, 3, 2000), true},
		{"sparse", sparseOIDs(rng, 800), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, dense := denseSpan(tc.in); dense != tc.dense {
				t.Fatalf("dense path = %v, want %v", dense, tc.dense)
			}
			want := refSortUnique(tc.in)
			in := slices.Clone(tc.in)
			got := SortUnique(in)
			if !slices.Equal(got, want) {
				t.Fatalf("SortUnique = %v, want %v", got, want)
			}
			if &got[0] != &in[0] {
				t.Fatal("result does not alias the input's prefix")
			}
		})
	}
}

// TestSortUniqueConcurrent normalizes dense sets from several goroutines
// at once: each must see its own zeroed pooled bitset.
func TestSortUniqueConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				in := figure7Runs(rng, 1+rng.Intn(300), 3, 32)
				want := refSortUnique(in)
				if got := SortUnique(slices.Clone(in)); !slices.Equal(got, want) {
					t.Errorf("goroutine %d trial %d: SortUnique = %v, want %v", seed, i, got, want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestSortUniqueAllocs is the zero-alloc guard on both of SortUnique's
// paths. Runs under the CI alloc-guard step (-run 'Alloc').
func TestSortUniqueAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not stable under -race")
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name  string
		in    []OID
		dense bool
	}{
		{"dense", figure7Runs(rng, 300, 3, 32), true},
		{"sparse", sparseOIDs(rng, 800), false},
	} {
		if _, _, dense := denseSpan(tc.in); dense != tc.dense {
			t.Fatalf("%s: dense path = %v, want %v", tc.name, dense, tc.dense)
		}
		buf := make([]OID, len(tc.in))
		allocs := testing.AllocsPerRun(200, func() {
			copy(buf, tc.in)
			SortUnique(buf)
		})
		if allocs != 0 {
			t.Errorf("%s path allocated %.1f times per run", tc.name, allocs)
		}
	}
}

// FuzzSortUnique cross-checks SortUnique against the sort-and-compact
// reference. Each two bytes of data are one offset d, and the OID is
// base + d<<(shift%64) (wrapping), so small shifts give dense sets and
// large ones sparse sets.
func FuzzSortUnique(f *testing.F) {
	add := func(base uint64, shift uint8, offs []uint16) {
		data := make([]byte, 2*len(offs))
		for i, d := range offs {
			binary.BigEndian.PutUint16(data[2*i:], d)
		}
		f.Add(base, shift, data)
	}
	offsets := func(oids []OID, base OID, shift uint8) []uint16 {
		out := make([]uint16, len(oids))
		for i, o := range oids {
			out[i] = uint16((o - base) >> shift)
		}
		return out
	}
	rng := rand.New(rand.NewSource(3))
	add(1, 0, offsets(figure7Runs(rng, 300, 3, 32), 1, 0))
	add(1, 24, offsets(sparseOIDs(rng, 200), 1, 24))
	add(1, 1, offsets(stridedOIDs(rng, 400, 2, 1, 2000), 1, 1))
	add(3, 2, offsets(stridedOIDs(rng, 400, 4, 3, 2000), 3, 2))
	add(42, 0, slices.Repeat([]uint16{9}, 64))
	add(math.MaxUint64-63, 0, offsets(seq(math.MaxUint64-63, 64, 1), math.MaxUint64-63, 0))
	add(math.MaxUint64-70000, 0, offsets(seq(math.MaxUint64-70000, 64, 997), math.MaxUint64-70000, 0))
	add(math.MaxUint64-10, 0, []uint16{0, 5, 10, 11, 20, 65535})
	add(7, 0, offsets(seq(7, denseMinLen-1, 1), 7, 0))
	add(7, 0, offsets(seq(7, denseMinLen, 1), 7, 0))
	add(0, 0, append(offsets(seq(0, 300, 1), 0, 0), 65535)) // span of denseMaxWords words
	add(0, 1, append(offsets(seq(0, 300, 2), 0, 1), 32768)) // one word over
	f.Fuzz(func(t *testing.T, base uint64, shift uint8, data []byte) {
		in := make([]OID, len(data)/2)
		for i := range in {
			d := uint64(binary.BigEndian.Uint16(data[2*i:]))
			in[i] = OID(base + d<<(shift%64))
		}
		want := refSortUnique(in)
		for pass := 0; pass < 2; pass++ { // the second pass sees the pooled bitset the first returned
			buf := slices.Clone(in)
			got := SortUnique(buf)
			if len(in) == 0 {
				if got != nil {
					t.Fatalf("SortUnique(empty) = %v", got)
				}
				return
			}
			if !slices.Equal(got, want) {
				t.Fatalf("pass %d: SortUnique(%v) = %v, want %v", pass, in, got, want)
			}
			if &got[0] != &buf[0] {
				t.Fatalf("pass %d: result does not alias the input's prefix", pass)
			}
		}
	})
}

// BenchmarkSortUnique times SortUnique on the fuzzer's shapes, restoring
// the unsorted input before every call.
func BenchmarkSortUnique(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, bc := range []struct {
		name string
		in   []OID
	}{
		{"dense-figure7", figure7Runs(rng, 300, 3, 32)},
		{"sparse", sparseOIDs(rng, 900)},
		{"strided-2", stridedOIDs(rng, 900, 2, 1, 2048)},
		{"strided-4", stridedOIDs(rng, 900, 4, 3, 2048)},
		{"tiny", figure7Runs(rng, 3, 3, 1)},
	} {
		_, _, dense := denseSpan(bc.in)
		b.Run(fmt.Sprintf("%s/n=%d/dense=%v", bc.name, len(bc.in), dense), func(b *testing.B) {
			buf := make([]OID, len(bc.in))
			b.ReportAllocs()
			for b.Loop() {
				copy(buf, bc.in)
				SortUnique(buf)
			}
		})
	}
}
